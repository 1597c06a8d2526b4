// Package wallclock implements the gatvet analyzer that forbids
// wall-clock time in engine packages. Inside the simulator only
// virtual sim.Time is legal: a time.Now() in engine code ties a
// simulated timeline to the host scheduler and silently breaks the
// byte-identical serial-vs-parallel contract. Genuine wall-time call
// sites (the sweep orchestrator's wall_ns accounting) carry a
// line-scoped //gat:nondet-ok <reason>.
package wallclock

import (
	"go/ast"
	"go/types"

	"gat/internal/analysis"
	"gat/internal/analysis/gatfact"
)

// forbidden lists the package-time functions that read or wait on the
// host clock. Constructors of timers are included: a timer in engine
// code is wall-clock control flow by definition.
var forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Analyzer flags host-clock usage in engine packages.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbids time.Now/Since/Sleep (and timer constructors) in engine packages " +
		"where only virtual sim time is legal; annotate genuine wall-time sites //gat:nondet-ok <reason>",
	Scope: []string{
		"gat/internal/sim",
		"gat/internal/pdes",
		"gat/internal/netsim",
		"gat/internal/gpu",
		"gat/internal/mpi",
		"gat/internal/charm",
		"gat/internal/jacobi/...",
		"gat/internal/app",
		"gat/internal/machine",
		"gat/internal/bench",
		"gat/internal/comm",
		"gat/internal/timeline",
		"gat/internal/sweep/...",
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		dirs := gatfact.Parse(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods on time values are pure arithmetic
			}
			if !forbidden[fn.Name()] {
				return true
			}
			if gatfact.Suppressed(dirs, gatfact.NondetOK, pass.Fset, id.Pos()) {
				return true
			}
			pass.Reportf(id.Pos(),
				"wall-clock call time.%s in an engine package (only virtual sim time is deterministic); annotate //gat:nondet-ok <reason> if this is genuinely wall time",
				fn.Name())
			return true
		})
	}
	return nil
}
