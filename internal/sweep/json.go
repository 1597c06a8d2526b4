package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"gat/internal/sweep/store"
)

// JSON report schema, version gat-sweep-v3. Figure values are fully
// deterministic; the wall_ns fields and the header's workers/wall_ns
// are host-side measurements and vary run to run.
//
// Every per-run record is the run's store.Record — the fields a cache
// entry carries after its schema tag — plus the source it came from
// (sim/store/prior), which makes a report self-contained for exact
// resume (-resume) and cache audits (-explain). Earlier v3 writers also
// wrote "scenario" (always equal to "figure"), "cached" (source other
// than sim) and a reserved "error"; readers ignore all three.

// SchemaV3 is the schema tag WriteJSON writes and ReadJSON accepts.
const SchemaV3 = "gat-sweep-v3"

// ErrUnknownSchema marks a structurally valid JSON document whose
// schema tag is not SchemaV3 — a foreign document, or a gat-sweep-v1/v2
// report from a build before per-run fingerprints. It is
// distinguishable from a JSON decode error so servers (sweepd) can
// answer a foreign-but-well-formed payload with a friendly
// "unsupported schema" message instead of a decoder trace.
var ErrUnknownSchema = errors.New("unsupported sweep report schema")

// Report is the on-disk sweep document.
type Report struct {
	Schema  string         `json:"schema"`
	Workers int            `json:"workers"`
	WallNS  int64          `json:"wall_ns"`
	Figures []ReportFigure `json:"figures"`
}

// ReportFigure is one figure with its series and per-run records.
type ReportFigure struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	XLabel string         `json:"xlabel"`
	YLabel string         `json:"ylabel"`
	Series []ReportSeries `json:"series"`
	Runs   []ReportRun    `json:"runs"`
}

// ReportSeries is one rendered line.
type ReportSeries struct {
	Name   string        `json:"name"`
	Points []ReportPoint `json:"points"`
}

// ReportPoint is one rendered figure value.
type ReportPoint struct {
	X     int     `json:"x"`
	Value float64 `json:"value"`
	Meta  string  `json:"meta,omitempty"`
}

// ReportRun is the per-run record: the run's store.Record — enough to
// re-execute the spec in isolation and to resume it exactly by its key
// — plus Source, where the point came from ("sim", "store" or
// "prior"). For cached and resumed runs the record's WallNS is the
// original simulation's cost, not the lookup's, so resuming a
// warm-sweep report never launders lookup times into saved-cost
// accounting.
type ReportRun struct {
	store.Record
	Source string `json:"source,omitempty"`
}

// Record renders the run as its gat-sweep-v3 per-run record — the
// exact shape WriteJSON embeds and sweepd's watch stream emits one
// line of per completed cell, so report files and live streams carry
// identical records.
func (run Run) Record() ReportRun {
	return ReportRun{
		Record: store.RecordOf(run.Key, run.Spec, run.Point, run.SimWallNS),
		Source: run.Source.String(),
	}
}

// WriteJSON renders the sweep as an indented gat-sweep-v3 document.
func (r Result) WriteJSON(w io.Writer) error {
	rep := Report{
		Schema:  SchemaV3,
		Workers: r.Workers,
		WallNS:  r.Wall.Nanoseconds(),
	}
	for _, f := range r.Figures {
		jf := ReportFigure{
			ID:     f.Figure.ID,
			Title:  f.Figure.Title,
			XLabel: f.Figure.XLabel,
			YLabel: f.Figure.YLabel,
		}
		for _, s := range f.Figure.Series {
			js := ReportSeries{Name: s.Name, Points: []ReportPoint{}}
			for _, p := range s.Points {
				js.Points = append(js.Points, ReportPoint{X: p.Nodes, Value: p.Value, Meta: p.Meta})
			}
			jf.Series = append(jf.Series, js)
		}
		for _, run := range f.Runs {
			jf.Runs = append(jf.Runs, run.Record())
		}
		rep.Figures = append(rep.Figures, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}

// ReadJSON parses a gat-sweep-v3 report. Malformed JSON fails with a
// decode error; a well-formed document under any other schema tag,
// gat-sweep-v1 and v2 included, fails with an error satisfying
// errors.Is(err, ErrUnknownSchema) — the split sweepd uses to answer
// 400 with a friendly message rather than a decoder trace.
func ReadJSON(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("sweep: invalid report JSON: %w", err)
	}
	if rep.Schema != SchemaV3 {
		return nil, fmt.Errorf("sweep: %w %q (want %s; re-run the sweep with -json on a current build to write one)",
			ErrUnknownSchema, rep.Schema, SchemaV3)
	}
	return &rep, nil
}
