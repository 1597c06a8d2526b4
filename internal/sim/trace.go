package sim

import (
	"fmt"
	"io"
)

// Span is one traced activity interval on a named resource, the
// simulator's equivalent of an Nsight Systems timeline row segment.
type Span struct {
	Resource string
	Label    string
	Start    Time
	End      Time
	Bytes    int64
}

// Tracer records spans for post-run timeline analysis. Tracing is
// opt-in (SetTracer) because large runs emit millions of spans.
type Tracer struct {
	Spans []Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Add records a span.
func (t *Tracer) Add(s Span) { t.Spans = append(t.Spans, s) }

// BusyByResource returns total busy time per resource name.
func (t *Tracer) BusyByResource() map[string]Time {
	out := make(map[string]Time)
	for _, s := range t.Spans {
		out[s.Resource] += s.End - s.Start
	}
	return out
}

// WriteCSV emits the spans as CSV (resource,label,start_ns,end_ns,bytes).
func (t *Tracer) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "resource,label,start_ns,end_ns,bytes"); err != nil {
		return err
	}
	for _, s := range t.Spans {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d\n",
			s.Resource, s.Label, int64(s.Start), int64(s.End), s.Bytes); err != nil {
			return err
		}
	}
	return nil
}
