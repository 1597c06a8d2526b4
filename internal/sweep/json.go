package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// JSON report schema, version gat-sweep-v3. Figure values are fully
// deterministic; the wall_ns fields and the header's workers/wall_ns
// are host-side measurements and vary run to run.
//
// Every per-run record carries the run's composition
// (scenario/app/machine) and its provenance — the content-address key
// (fingerprint), the cached flag with its source (sim/store/prior),
// the run's own value/meta, and the jitter fraction — which makes a
// report self-contained for exact resume (-resume) and cache audits
// (-explain).

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

// ReportRun is the per-run record: enough to re-execute the spec in
// isolation (figure, series, x, nodes, iteration counts, seed), the
// scenario composition that produced it (scenario, app, machine), the
// provenance (fingerprint key, cached flag and source, the run's own
// value), plus WallNS — the host cost of the simulation that produced
// the value. For cached/resumed runs that is the original simulation's
// cost carried through the store or prior report, not the microseconds
// the lookup took, so resuming a warm-sweep report never launders
// lookup times into saved-cost accounting.
type ReportRun struct {
	Figure   string `json:"figure"`
	Scenario string `json:"scenario,omitempty"`
	App      string `json:"app,omitempty"`
	Machine  string `json:"machine,omitempty"`
	Series   string `json:"series"`
	X        int    `json:"x"`
	Nodes    int    `json:"nodes"`
	Warmup   int    `json:"warmup"`
	Iters    int    `json:"iters"`
	Seed     uint64 `json:"seed"`
	WallNS   int64  `json:"wall_ns"`

	// Provenance. Key is the spec's content-address fingerprint, the
	// only thing resume matches a run by; Cached reports whether the
	// point was served without simulating, with Source naming where
	// from ("sim", "store" or "prior"); Value/Meta duplicate the run's
	// figure point so a partial report resumes exactly; Jitter is the
	// run's network jitter fraction; Error, when non-empty, marks a run
	// whose result must not be reused (resume re-runs it). Error is reserved: the
	// writer never emits it today — specs cannot fail, only be absent —
	// but readers honor it so hand-annotated or externally generated
	// reports can force selective re-runs.
	Key    string  `json:"key,omitempty"`
	Cached bool    `json:"cached"`
	Source string  `json:"source,omitempty"`
	Value  float64 `json:"value"`
	Meta   string  `json:"meta,omitempty"`
	Jitter float64 `json:"jitter,omitempty"`
	Error  string  `json:"error,omitempty"`

	// MaxLinkUtil and MeanLinkUtil summarize the run's fabric-link
	// congestion (bench.Point): where the run was network-bound.
	// Absent for runs on NIC-only machines and in pre-fabric documents.
	MaxLinkUtil  float64 `json:"max_link_util,omitempty"`
	MeanLinkUtil float64 `json:"mean_link_util,omitempty"`

	// Routing names the fabric's route-choice policy ("minimal",
	// "valiant", "adaptive"; bench.Point). Absent for runs on NIC-only
	// machines and in pre-routing documents.
	Routing string `json:"routing,omitempty"`
}

// Record renders the run as its gat-sweep-v3 per-run record — the
// exact shape WriteJSON embeds and sweepd's watch stream emits one
// line of per completed cell, so report files and live streams carry
// identical records.
func (run Run) Record() ReportRun {
	return ReportRun{
		Figure:       run.Spec.Scenario,
		Scenario:     run.Spec.Scenario,
		App:          run.Spec.App,
		Machine:      run.Spec.Machine,
		Series:       run.Spec.Series,
		X:            run.Spec.X,
		Nodes:        run.Spec.Nodes,
		Warmup:       run.Spec.Warmup,
		Iters:        run.Spec.Iters,
		Seed:         run.Spec.Seed,
		WallNS:       run.SimWallNS,
		Key:          run.Key,
		Cached:       run.Source != SourceSim,
		Source:       run.Source.String(),
		Value:        run.Point.Value,
		Meta:         run.Point.Meta,
		Jitter:       run.Spec.Jitter,
		MaxLinkUtil:  run.Point.MaxLinkUtil,
		MeanLinkUtil: run.Point.MeanLinkUtil,
		Routing:      run.Point.Routing,
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
