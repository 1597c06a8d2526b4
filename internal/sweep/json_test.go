package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gat/internal/sweep/store"
)

// TestReadJSONVersionDetection pins the acceptance contract documented
// on ReadJSON: a gat-sweep-v3 document is read with its tag intact;
// a well-formed document under any other tag — the fingerprint-less
// gat-sweep-v1 and v2 included — fails with ErrUnknownSchema (sweepd's
// friendly-400 split) and names the tag; malformed JSON fails with a
// plain decode error.
func TestReadJSONVersionDetection(t *testing.T) {
	cases := []struct {
		name, doc   string
		tag         string // the schema tag an ErrUnknownSchema error quotes
		wantUnknown bool   // errors.Is(err, ErrUnknownSchema)
		wantErr     bool
	}{
		{"v1", `{"schema":"gat-sweep-v1","figures":[]}`, "gat-sweep-v1", true, true},
		{"v2", `{"schema":"gat-sweep-v2","figures":[]}`, "gat-sweep-v2", true, true},
		{"v3", `{"schema":"gat-sweep-v3","workers":4,"figures":[]}`, "", false, false},
		{"future-version", `{"schema":"gat-sweep-v4","figures":[]}`, "gat-sweep-v4", true, true},
		{"foreign-tag", `{"schema":"gat-cache-v1","figures":[]}`, "gat-cache-v1", true, true},
		{"missing-schema", `{"figures":[]}`, "", true, true},
		{"not-json", `schema: gat-sweep-v3`, "", false, true},
		{"truncated", `{"schema":"gat-sweep-v3","figures":[`, "", false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := ReadJSON(strings.NewReader(c.doc))
			if c.wantErr {
				if err == nil {
					t.Fatalf("ReadJSON(%q) succeeded, want error", c.doc)
				}
				if got := errors.Is(err, ErrUnknownSchema); got != c.wantUnknown {
					t.Fatalf("errors.Is(err, ErrUnknownSchema) = %v, want %v (err: %v)", got, c.wantUnknown, err)
				}
				if c.wantUnknown && !strings.Contains(err.Error(), strconv.Quote(c.tag)) {
					t.Fatalf("error %q does not name the schema tag %q", err, c.tag)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadJSON: %v", err)
			}
			if rep.Schema != SchemaV3 {
				t.Fatalf("detected schema %q, want %q", rep.Schema, SchemaV3)
			}
		})
	}
}

// TestRunRecordMatchesWriteJSON: the watch stream and the report file
// must carry the same per-run record — Record is the single renderer.
func TestRunRecordMatchesWriteJSON(t *testing.T) {
	res, err := Sweep([]string{"fig6a"}, Options{Workers: 2, Bench: quickOpt()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range res.Figures[0].Runs {
		if got, want := run.Record(), rep.Figures[0].Runs[i]; got != want {
			t.Fatalf("run %d: Record() = %+v, report run = %+v", i, got, want)
		}
	}
}

// parentRun is a report run as gat-sweep-v3 writers before store.Record
// wrote it: in the old field order, with "scenario" (always equal to
// "figure"), "cached" and the reserved "error", none of which a reader
// looks at any more.
const parentRun = `{"figure": "fig7b", "scenario": "fig7b", "app": "jacobi3d", "machine": "summit",
	"series": "MPI-H", "x": 1, "nodes": 1, "warmup": 3, "iters": 2, "seed": 1713445772365009370,
	"wall_ns": 1058748, "key": "af887fb9163024520f27e5d463af3f44", "cached": true, "source": "store",
	"value": 169.121, "error": "reserved"}`

// jsonFields returns the top-level field names of a JSON object in
// document order.
func jsonFields(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", data)
	}
	var names []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// TestRecordJSONFields pins the wire names of the one run record: a
// cache entry is "schema" and the record's fields, a report run the
// record's fields and "source". A report run written before the record
// existed still reads field for field.
func TestRecordJSONFields(t *testing.T) {
	record := []string{"key", "figure", "app", "machine", "series", "x", "nodes", "warmup", "iters",
		"seed", "jitter", "value", "meta", "max_link_util", "mean_link_util", "routing", "wall_ns"}
	rec := store.Record{
		Key: "0123456789abcdef0123456789abcdef", Figure: "f", App: "a", Machine: "m", Series: "s",
		X: 1, Nodes: 2, Warmup: 3, Iters: 4, Seed: 5, Jitter: 0.5, Value: 6, Meta: "odf=2",
		MaxLinkUtil: 0.7, MeanLinkUtil: 0.3, Routing: "adaptive", WallNS: 9,
	}
	for _, c := range []struct {
		name string
		v    any
		want []string
	}{
		{"entry", store.Entry{Schema: store.Schema, Record: rec}, append([]string{"schema"}, record...)},
		{"report run", ReportRun{Record: rec, Source: "sim"}, append(slices.Clone(record), "source")},
	} {
		data, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonFields(t, data); !slices.Equal(got, c.want) {
			t.Errorf("%s fields = %v, want %v", c.name, got, c.want)
		}
	}

	var old ReportRun
	if err := json.Unmarshal([]byte(parentRun), &old); err != nil {
		t.Fatal(err)
	}
	want := ReportRun{Record: store.Record{
		Key: "af887fb9163024520f27e5d463af3f44", Figure: "fig7b", App: "jacobi3d", Machine: "summit",
		Series: "MPI-H", X: 1, Nodes: 1, Warmup: 3, Iters: 2, Seed: 1713445772365009370,
		Value: 169.121, WallNS: 1058748,
	}, Source: "store"}
	if old != want {
		t.Fatalf("parent-format run reads as %+v, want %+v", old, want)
	}
}
