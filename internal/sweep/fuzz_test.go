package sweep

import (
	"bytes"
	"testing"

	"gat/internal/bench"
)

// FuzzReadJSON feeds arbitrary bytes to ReadJSON and indexes whatever
// it accepts with NewPrior. Neither may panic; an accepted report
// carries SchemaV3, and NewPrior indexes no keyless run. Seeds are a
// real fig6a report at the goldens' scale, the synthetic fabric report,
// a report run in the format of writers before store.Record, and
// refused shapes: a v2 tag, a truncated document.
func FuzzReadJSON(f *testing.F) {
	res, err := Sweep([]string{"fig6a"}, Options{Workers: 1, Bench: bench.Options{MaxNodes: 2, Iters: 2}})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Result{res, utilResult()} {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		f.Add(bytes.Replace(buf.Bytes(), []byte(SchemaV3), []byte("gat-sweep-v2"), 1))
	}
	f.Add([]byte(`{"schema":"gat-sweep-v3","figures":[{"runs":[{"key":"k","error":"x"},{"key":""},{"key":"k"}]}]}`))
	f.Add([]byte(`{"schema":"gat-sweep-v3","workers":1,"wall_ns":5,"figures":[{"id":"fig7b","runs":[` + parentRun + `]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if rep.Schema != SchemaV3 {
			t.Fatalf("accepted a report with schema %q", rep.Schema)
		}
		if _, ok := NewPrior(rep)[""]; ok {
			t.Fatal("NewPrior indexed a run without a key")
		}
	})
}
