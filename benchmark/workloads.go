package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gat/internal/app"
	"gat/internal/bench"
	"gat/internal/jacobi"
	"gat/internal/machine"
	"gat/internal/netsim"
	"gat/internal/sim"
	"gat/internal/sweep"
	"gat/internal/sweep/store"
	"gat/internal/sweep/store/remote"
	"gat/internal/sweepd"
)

// workload is one set of inputs the benchmark runs. setup prepares a
// child process's inputs; the session it returns runs timed passes.
type workload struct {
	name, why string
	// oneP runs the children with GOMAXPROCS=1 instead of the host's CPU
	// count. The cache workloads set it: each request hands off between
	// the client's goroutine and the server's, and with two Ps on a
	// shared 2-vCPU VM those cross-CPU wake-ups made pass times swing
	// (cache-local-read: an IQR of 31 % of the median against 16 % on
	// one P).
	oneP  bool
	setup func(e *env) (*session, error)
}

// session is one child's prepared workload.
type session struct {
	// pass runs one timed pass and checks its outputs.
	pass func(p *pass)
	// final, if set, runs untimed checks after the last pass.
	final func(p *pass)
	// close releases what setup acquired.
	close func()
}

var workloads = []*workload{
	{
		name:  "paper-figs",
		why:   "the paper reproduction users run: per-GPU engine at fine grain on the NIC-only summit profile; no fabric, router, pdes or cache",
		setup: setupPaperFigs,
	},
	{
		name:  "fabric-routing",
		why:   "every message pays route choice and link reservation on a 48-node dragonfly; a router change shows here and not on paper-figs",
		setup: setupFabricRouting,
	},
	{
		name:  "exascale-lp",
		why:   "deep per-shard event queues and pdes window barriers of the LP model; skips procs, gpu, mpi, charm and the fabric",
		setup: setupExascale,
	},
	{
		name:  "cache-remote-read",
		why:   "the sweepd read path with zero simulation: fingerprinting, HTTP, JSON and server-side store.Get",
		oneP:  true,
		setup: func(e *env) (*session, error) { return setupCache(e, remoteRead) },
	},
	{
		name:  "cache-local-read",
		why:   "the warm local tier in front of sweepd, as `sweep -cache -remote` reruns: store.Get from disk and JSON, no HTTP",
		oneP:  true,
		setup: func(e *env) (*session, error) { return setupCache(e, localRead) },
	},
}

// ungatedWorkloads run only when named with -workload, and BENCHMARK.json
// does not declare them. cache-seed-local is the write side of the cache
// layers (store.Put: MarshalIndent, temp file, rename), but nearly all of
// its pass time is the kernel creating files, which on the shared disk
// the benchmark was built on varied more than tenfold from minute to
// minute, far beyond any bound a gate could use.
var ungatedWorkloads = []*workload{
	{
		name:  "cache-seed-local",
		why:   "the write side of the cache layers: every run misses a fresh local disk tier, hits sweepd and is written locally (store.Put)",
		oneP:  true,
		setup: func(e *env) (*session, error) { return setupCache(e, seedLocal) },
	},
}

// allWorkloads returns the gated workloads, then the ungated ones.
func allWorkloads() []*workload {
	return append(slices.Clip(workloads), ungatedWorkloads...)
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scale sizes the workloads: full is the benchmark, tiny the smoke test.
type scale struct {
	name string
	// figs is the paper-figs plan and figRuns the runs it must hold.
	figs    bench.Options
	figRuns int
	// fill is the plan the cache workloads serve and fillRuns its runs.
	fill     bench.Options
	fillRuns int
	// fabricWarmup and fabricIters size each Jacobi3D run of
	// fabric-routing; waves is the number of waves per traffic pattern.
	fabricWarmup, fabricIters, waves int
	// exaNodes and exaIters size exascale-lp.
	exaNodes []int
	exaIters int
	// benchtime is the layer rungs' -test.benchtime; calibReps the
	// repetitions of the host calibration.
	benchtime string
	calibReps int
	// probeBudget caps the time spent sampling cheap set-ups again.
	probeBudget time.Duration
}

var scales = []*scale{
	{
		name:         "full",
		figs:         bench.Options{MaxNodes: 16, Iters: 3},
		figRuns:      142,
		fill:         bench.Options{MaxNodes: 4, Iters: 2, Warmup: 1},
		fillRuns:     84,
		fabricWarmup: 1, fabricIters: 4, waves: 512,
		exaNodes:    []int{1024, 2048, 4096, 8192, 16384},
		exaIters:    5,
		benchtime:   "250ms",
		calibReps:   5,
		probeBudget: 1500 * time.Millisecond,
	},
	{
		name:         "tiny",
		figs:         bench.Options{MaxNodes: 2, Iters: 1, Warmup: 1},
		figRuns:      58,
		fill:         bench.Options{MaxNodes: 1, Iters: 1, Warmup: 1},
		fillRuns:     32,
		fabricWarmup: 1, fabricIters: 1, waves: 2,
		exaNodes:    []int{1024},
		exaIters:    1,
		benchtime:   "3x",
		calibReps:   1,
		probeBudget: 100 * time.Millisecond,
	},
}

func scaleByName(name string) (*scale, error) {
	for _, s := range scales {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown scale %q (have full, tiny)", name)
}

// env is what a child's workload sees: its inputs and where to record.
type env struct {
	scale *scale
	seed  uint64
	tr    *tracer
	// tmp is a private scratch directory for disk stores.
	tmp string
	// digests maps "workload/scale" to the committed SHA-256 of the
	// workload's outputs.
	digests map[string]string
}

// checkDigest compares the SHA-256 in h with the committed one.
func (e *env) checkDigest(p *pass, workload string, h hash.Hash) {
	got := hex.EncodeToString(h.Sum(nil))
	key := workload + "/" + e.scale.name
	want, ok := e.digests[key]
	switch {
	case !ok:
		p.errorf("no committed digest for %s; outputs hash to %s", key, got)
	case got != want:
		p.errorf("%s outputs hash to %s, committed digest is %s", key, got, want)
	}
}

// pass accumulates one timed pass: the time spent inside timed calls,
// the operations attempted and failed, failed checks, and the exact
// counts the layers reported.
type pass struct {
	tr        *tracer
	timed     time.Duration
	attempted int
	failedOps int
	errs      []string
	c         counts
}

// counts are the per-pass work counts the layers report. A
// deterministic workload repeats them exactly on every pass.
type counts struct {
	Events      uint64  `json:"events"`
	Kernels     uint64  `json:"kernels"`
	NetMsgs     uint64  `json:"net_msgs"`
	NetBytes    int64   `json:"net_bytes"`
	MaxLinkUtil float64 `json:"max_link_util"`
	Windows     uint64  `json:"windows"`
	CrossMsgs   uint64  `json:"cross_msgs"`
	Runs        int     `json:"runs"`
	Simulated   int     `json:"simulated"`
	FromStore   int     `json:"from_store"`
	CacheErrors int     `json:"cache_errors"`
}

// call times fn, a call into a public function of the simulator, as a
// span named name.
func (p *pass) call(name string, fn func()) {
	id := p.tr.begin(name)
	p.tr.timed(func() {
		start := time.Now()
		fn()
		p.timed += time.Since(start)
	})
	p.tr.end(id)
}

// op counts one operation, failed if err is set.
func (p *pass) op(err error) {
	p.attempted++
	if err != nil {
		p.failedOps++
		p.errorf("%v", err)
	}
}

func (p *pass) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// failed is the pass's failed operations: all of them when a check
// failed.
func (p *pass) failed() int {
	if len(p.errs) > p.failedOps {
		return p.attempted
	}
	return p.failedOps
}

func figureIDs() []string {
	var ids []string
	for _, s := range bench.Scenarios() {
		if s.Kind == bench.KindFigure {
			ids = append(ids, s.Name)
		}
	}
	return ids
}

// planRuns plans every id the way sweep.Sweep does and counts the runs.
func planRuns(e *env, ids []string, opt bench.Options) (int, error) {
	runs := 0
	for _, id := range ids {
		var plan bench.Plan
		var err error
		sp := e.tr.begin("bench.PlanScenario")
		plan, err = bench.PlanScenario(id, opt, bench.Overrides{})
		e.tr.end(sp)
		if err != nil {
			return 0, err
		}
		runs += len(plan.Specs)
	}
	return runs, nil
}

// sweepCall runs one sweep as a timed call. In traced runs every
// completed run becomes a "sweep.run" span under the sweep's span.
func sweepCall(p *pass, ids []string, opt sweep.Options) (sweep.Result, error) {
	if p.tr != nil {
		from := len(p.tr.spans)
		opt.Notify = func(r sweep.Run) { from = p.tr.adopt("sweep.run", r.Wall, from) }
	}
	var res sweep.Result
	var err error
	p.call("sweep.Sweep", func() { res, err = sweep.Sweep(ids, opt) })
	if err == nil {
		p.c.Runs += res.Simulated + res.FromStore + res.FromPrior
		p.c.Simulated += res.Simulated
		p.c.FromStore += res.FromStore
		p.c.CacheErrors += res.CacheErrors
	}
	return res, err
}

func setupPaperFigs(e *env) (*session, error) {
	ids := figureIDs()
	runs, err := planRuns(e, ids, e.scale.figs)
	if err != nil {
		return nil, err
	}
	if runs != e.scale.figRuns {
		return nil, fmt.Errorf("paper-figs plans %d runs, want %d", runs, e.scale.figRuns)
	}
	opt := sweep.Options{Workers: 1, Bench: e.scale.figs}
	return &session{pass: func(p *pass) {
		res, err := sweepCall(p, ids, opt)
		p.attempted += runs
		if err != nil {
			p.errorf("sweep: %v", err)
			return
		}
		if res.Simulated != runs {
			p.errorf("paper-figs simulated %d runs, want %d", res.Simulated, runs)
		}
		h := sha256.New()
		res.WriteTables(h)
		e.checkDigest(p, "paper-figs", h)
	}}, nil
}

// fabric-routing's machine: perlmutter-dragonfly at 48 nodes, three
// router groups, so a non-minimal route has a group to detour through.
const (
	fabricProfile = "perlmutter-dragonfly"
	fabricNodes   = 48
	fabricJitter  = 0.02
	waveBytes     = 64 << 10
	// defaultSeed is the seed the committed fabric-routing digest
	// belongs to.
	defaultSeed = 1
)

var (
	fabricVariants = []string{"mpi-d", "charm-d"}
	fabricTapers   = []float64{1, 16}
)

type fabricCase struct {
	routing string
	taper   float64
	cfg     machine.Config
}

// trafficPattern generates the flows of one synthetic wave pattern.
type trafficPattern struct {
	name  string
	flows func(nodes, podSize int) [][2]int
}

var fabricPatterns = []trafficPattern{
	// hotspot: every node sends to node 0.
	{"hotspot", func(nodes, _ int) [][2]int {
		var flows [][2]int
		for i := 1; i < nodes; i++ {
			flows = append(flows, [2]int{i, 0})
		}
		return flows
	}},
	// adversarial: every node's partner sits in the next router group.
	{"adversarial", func(nodes, podSize int) [][2]int {
		var flows [][2]int
		for i := 0; i < nodes; i++ {
			flows = append(flows, [2]int{i, (i + podSize) % nodes})
		}
		return flows
	}},
}

// runWaves sends bytes along every flow per wave, each wave starting
// once the previous one has fully arrived, and returns the simulated
// completion time.
func runWaves(m *machine.Machine, flows [][2]int, bytes int64, waves int) sim.Time {
	ready := sim.FiredSignal()
	for w := 0; w < waves; w++ {
		arrivals := make([]*sim.Signal, len(flows))
		for i, f := range flows {
			arrivals[i] = m.Net.Transfer(f[0], f[1], bytes, ready)
		}
		ready = sim.AllOf(m.Eng, arrivals...)
	}
	m.Eng.Run()
	return m.Eng.Now()
}

// fabricResult is one fabric-routing run's outputs.
type fabricResult struct {
	time         sim.Time
	events, msgs uint64
	kernels      uint64
	bytes        int64
	maxUtil      float64
}

func setupFabricRouting(e *env) (*session, error) {
	jac, err := app.ByName("jacobi3d")
	if err != nil {
		return nil, err
	}
	params := jac.Defaults(fabricNodes)
	params.Warmup, params.Iters = e.scale.fabricWarmup, e.scale.fabricIters
	var cases []fabricCase
	for _, taper := range fabricTapers {
		for _, routing := range netsim.RoutingNames() {
			cfg, err := machine.BuildProfile(fabricProfile, fabricNodes)
			if err != nil {
				return nil, err
			}
			cfg.Fabric.Taper = taper
			cfg.Fabric.Routing = routing
			cfg.Net.JitterFrac = fabricJitter
			cfg.Net.JitterSeed = e.seed
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			cases = append(cases, fabricCase{routing: routing, taper: taper, cfg: cfg})
		}
	}

	runApp := func(p *pass, c fabricCase, variant string) (app.Metrics, error) {
		m, err := machine.New(c.cfg)
		if err != nil {
			return app.Metrics{}, err
		}
		run, err := jac.BuildRun(m, variant, params)
		if err != nil {
			return app.Metrics{}, err
		}
		var met app.Metrics
		p.call("app.run", func() { met = run() })
		return met, nil
	}
	runPattern := func(p *pass, c fabricCase, tp trafficPattern) (fabricResult, error) {
		m, err := machine.New(c.cfg)
		if err != nil {
			return fabricResult{}, err
		}
		flows := tp.flows(fabricNodes, m.Cfg.Net.PodSize)
		var t sim.Time
		p.call("netsim.waves", func() { t = runWaves(m, flows, waveBytes, e.scale.waves) })
		maxUtil, _ := m.Net.LinkUtilization()
		return fabricResult{
			time: t, events: m.Eng.EventsExecuted(), msgs: m.Net.Messages(),
			bytes: m.Net.BytesMoved(), maxUtil: maxUtil,
		}, nil
	}

	var first app.Metrics
	record := func(p *pass, h hash.Hash, pattern string, c fabricCase, r fabricResult) {
		p.c.Events += r.events
		p.c.Kernels += r.kernels
		p.c.NetMsgs += r.msgs
		p.c.NetBytes += r.bytes
		p.c.MaxLinkUtil = max(p.c.MaxLinkUtil, r.maxUtil)
		fmt.Fprintf(h, "%s %s %g %d %d %d %v\n", pattern, c.routing, c.taper, int64(r.time), r.events, r.msgs, r.maxUtil)
		if r.events == 0 || r.maxUtil <= 0 || r.maxUtil > 1 {
			p.errorf("%s %s taper %g: events=%d max_link_util=%v, want events > 0 and 0 < util <= 1",
				pattern, c.routing, c.taper, r.events, r.maxUtil)
		}
	}
	return &session{
		pass: func(p *pass) {
			h := sha256.New()
			for i, c := range cases {
				for j, v := range fabricVariants {
					met, err := runApp(p, c, v)
					p.op(err)
					if err != nil {
						continue
					}
					if i == 0 && j == 0 {
						first = met
					}
					record(p, h, v, c, fabricResult{
						time: met.TimePerIter, events: met.Events, msgs: met.NetMsgs,
						kernels: met.Kernels, bytes: met.NetBytes, maxUtil: met.MaxLinkUtil,
					})
				}
				for _, tp := range fabricPatterns {
					r, err := runPattern(p, c, tp)
					p.op(err)
					if err == nil {
						record(p, h, tp.name, c, r)
					}
				}
			}
			if e.seed == defaultSeed {
				e.checkDigest(p, "fabric-routing", h)
			}
		},
		// A repeated first run must reproduce the first pass exactly.
		final: func(p *pass) {
			again, err := runApp(p, cases[0], fabricVariants[0])
			p.op(err)
			if err == nil && again != first {
				p.errorf("repeated %s run differs: %+v, first pass had %+v", fabricVariants[0], again, first)
			}
		},
	}, nil
}

// exascale-lp runs the LP model on the dragonfly profile, on at most two
// shards.
const (
	exaProfile = "perlmutter-dragonfly"
	exaShards  = 2
)

func setupExascale(e *env) (*session, error) {
	type point struct {
		nodes   int
		overlap bool
		cfg     machine.Config
		jc      jacobi.Config
	}
	var points []point
	for _, n := range e.scale.exaNodes {
		cfg, err := machine.BuildProfile(exaProfile, n)
		if err != nil {
			return nil, err
		}
		jc := jacobi.Config{Global: jacobi.WeakGlobal([3]int{192, 192, 192}, n), Warmup: 1, Iters: e.scale.exaIters}
		for _, overlap := range []bool{false, true} {
			points = append(points, point{nodes: n, overlap: overlap, cfg: cfg, jc: jc})
		}
	}
	runExa := func(p *pass, pt point, shards int) jacobi.ExaResult {
		var r jacobi.ExaResult
		p.call("jacobi.RunExa", func() {
			r = jacobi.RunExa(pt.cfg, pt.jc, jacobi.ExaOpts{Shards: shards, Overlap: pt.overlap})
		})
		p.attempted++
		return r
	}
	var first jacobi.ExaResult
	return &session{
		pass: func(p *pass) {
			h := sha256.New()
			for i, pt := range points {
				r := runExa(p, pt, exaShards)
				if i == 0 {
					first = r
				}
				p.c.Events += r.Events
				p.c.Windows += r.Windows
				p.c.CrossMsgs += r.CrossMessages
				fmt.Fprintf(h, "%d %t %d %d\n", pt.nodes, pt.overlap, int64(r.TimePerIter), r.Events)
			}
			e.checkDigest(p, "exascale-lp", h)
		},
		// The smallest point must not depend on the shard count.
		final: func(p *pass) {
			r := runExa(p, points[0], 1)
			if r.TimePerIter != first.TimePerIter || r.Total != first.Total || r.Events != first.Events ||
				r.NetMsgs != first.NetMsgs || r.NetBytes != first.NetBytes {
				p.errorf("%d nodes on 1 shard gives %+v, on %d shards %+v", points[0].nodes, r, exaShards, first)
			}
		},
	}, nil
}

// timedCache wraps a sweep.Cache so every Get and Put counts as an
// operation and, in traced runs, is recorded as a span named
// "<layer>.Get" or "<layer>.Put".
type timedCache struct {
	c     sweep.Cache
	layer string
	p     *pass
}

func (t timedCache) Get(key string) (store.Entry, bool, error) {
	id := t.p.tr.begin(t.layer + ".Get")
	e, ok, err := t.c.Get(key)
	t.p.tr.end(id)
	t.p.op(err)
	return e, ok, err
}

func (t timedCache) Put(e store.Entry) error {
	id := t.p.tr.begin(t.layer + ".Put")
	err := t.c.Put(e)
	t.p.tr.end(id)
	t.p.op(err)
	return err
}

// cacheMode is what stands in front of the remote client in a cache
// workload's passes.
type cacheMode int

const (
	// remoteRead: nothing; every run is a remote hit.
	remoteRead cacheMode = iota
	// localRead: a local disk store seeded once during set-up, so every
	// run hits locally.
	localRead
	// seedLocal: a fresh local disk store per pass, created and removed
	// outside the timed call, so every run misses locally, hits the
	// server and is written to the local store.
	seedLocal
)

// setupCache starts an in-process sweepd on loopback over a disk store
// and fills it with one cold sweep of the fig plan through the remote
// client. Passes then sweep the same plan warm through the tiers mode
// names.
func setupCache(e *env, mode cacheMode) (*session, error) {
	dir, err := os.MkdirTemp(e.tmp, "sweepd-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "server"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := &http.Server{Handler: sweepd.New(st, nil)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	closeAll := func() {
		srv.Close()
		<-served
		os.RemoveAll(dir)
	}
	fail := func(err error) (*session, error) {
		closeAll()
		return nil, err
	}
	client, err := remote.Open("http://" + ln.Addr().String())
	if err != nil {
		return fail(err)
	}

	ids := figureIDs()
	sp := e.tr.begin("setup.fill")
	fill, err := sweep.Sweep(ids, sweep.Options{Workers: 1, Bench: e.scale.fill, Cache: client})
	e.tr.end(sp)
	if err == nil && (fill.Simulated != e.scale.fillRuns || fill.CacheErrors != 0) {
		err = fmt.Errorf("set-up sweep simulated %d runs with %d cache errors, want %d and 0",
			fill.Simulated, fill.CacheErrors, e.scale.fillRuns)
	}
	if err != nil {
		return fail(err)
	}
	var want bytes.Buffer
	fill.WriteTables(&want)
	var seeded *store.Store
	if mode == localRead {
		if seeded, err = store.Open(filepath.Join(dir, "local")); err != nil {
			return fail(err)
		}
		res, err := sweep.Sweep(ids, sweep.Options{Workers: 1, Bench: e.scale.fill, Cache: sweep.Tiered{Local: seeded, Remote: client}})
		if err == nil && (res.Simulated != 0 || res.CacheErrors != 0) {
			err = fmt.Errorf("seeding sweep simulated %d runs with %d cache errors, want 0 and 0", res.Simulated, res.CacheErrors)
		}
		if err != nil {
			return fail(err)
		}
	}

	passes := 0
	return &session{
		pass: func(p *pass) {
			var cache sweep.Cache = timedCache{c: client, layer: "remote", p: p}
			var fresh *store.Store
			switch mode {
			case localRead:
				cache = sweep.Tiered{Local: timedCache{c: seeded, layer: "store", p: p}, Remote: cache}
			case seedLocal:
				localDir := filepath.Join(dir, fmt.Sprintf("local-%d", passes))
				passes++
				defer os.RemoveAll(localDir)
				var err error
				if fresh, err = store.Open(localDir); err != nil {
					p.op(fmt.Errorf("local store: %w", err))
					return
				}
				cache = sweep.Tiered{Local: timedCache{c: fresh, layer: "store", p: p}, Remote: cache}
			}
			res, err := sweepCall(p, ids, sweep.Options{Workers: 1, Bench: e.scale.fill, Cache: cache})
			if err != nil {
				p.op(fmt.Errorf("sweep: %w", err))
				return
			}
			if res.Simulated != 0 || res.CacheErrors != 0 {
				p.errorf("warm sweep simulated %d runs with %d cache errors, want 0 and 0", res.Simulated, res.CacheErrors)
			}
			var got bytes.Buffer
			res.WriteTables(&got)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				p.errorf("warm sweep tables differ from the fill's")
			}
			if fresh != nil {
				if n, err := fresh.Len(); err != nil || n != e.scale.fillRuns {
					p.errorf("local store holds %d entries (%v) after the pass, want %d", n, err, e.scale.fillRuns)
				}
			}
		},
		close: closeAll,
	}, nil
}
