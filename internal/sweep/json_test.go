package sweep

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
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
