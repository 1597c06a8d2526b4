package app

import (
	"testing"

	"gat/internal/machine"
	"gat/internal/netsim"
)

// goldenRun is one small run of an app variant and every field of the
// Metrics it must report.
type goldenRun struct {
	app, variant  string
	warmup, iters int
	want          Metrics
}

// TestMetricsGolden pins every Metrics field of one run of each
// registered app and variant on a 2-node Summit: Defaults(2) with 1
// warm-up and 2 timed iterations, miniMD one step past its first
// rebalance and ring 3 steps. machine.Metrics reads the counters, so a
// change that moves an event, a kernel launch or a network transfer
// fails here.
func TestMetricsGolden(t *testing.T) {
	summit := []goldenRun{
		{"jacobi3d", "mpi-h", 1, 2, Metrics{TimePerIter: 180309, Total: 562420, Events: 3336, Kernels: 276, NetBytes: 10622976, NetMsgs: 216}},
		{"jacobi3d", "mpi-d", 1, 2, Metrics{TimePerIter: 154459, Total: 486620, Events: 2532, Kernels: 276, NetBytes: 10622976, NetMsgs: 216}},
		{"jacobi3d", "charm-h", 1, 2, Metrics{TimePerIter: 491153, Total: 1821614, Events: 16288, Kernels: 1320, NetBytes: 12422016, NetMsgs: 372}},
		{"jacobi3d", "charm-d", 1, 2, Metrics{TimePerIter: 224937, Total: 1064574, Events: 10332, Kernels: 1320, NetBytes: 23003136, NetMsgs: 588}},
		{"minimd", "charm-static", 1, MiniMDRebalanceEvery + 1, Metrics{TimePerIter: 508939, Total: 2544698, Events: 5978, Kernels: 480, NetBytes: 46202880, NetMsgs: 470}},
		{"minimd", "charm-lb", 1, MiniMDRebalanceEvery + 1, Metrics{TimePerIter: 508939, Total: 2544698, Events: 5989, Kernels: 480, NetBytes: 52494624, NetMsgs: 473}},
		{"ring", "ring", 1, 3, Metrics{TimePerIter: 484904, Total: 1454714, Events: 552, Kernels: 36, NetBytes: 37748736, NetMsgs: 36}},
	}
	covered := map[string]bool{}
	for _, g := range summit {
		covered[g.app+"/"+g.variant] = true
		checkGolden(t, summitMachine(t, 2), g)
	}
	for _, a := range Apps() {
		for _, v := range a.Variants() {
			if !covered[a.Name()+"/"+v] {
				t.Errorf("%s/%s has no golden metrics", a.Name(), v)
			}
		}
	}

	// Summit is NIC-only, so its runs read no link utilization and no
	// routing policy. Two runs on a 4-node machine of two tapered pods
	// under adaptive routing pin those fields too.
	fabric := []goldenRun{
		{"jacobi3d", "charm-d", 1, 2, Metrics{TimePerIter: 224937, Total: 1064574, Events: 22036, Kernels: 2832, NetBytes: 49545216, NetMsgs: 1272,
			MaxLinkUtil: 0.5781242074294507, MeanLinkUtil: 0.5781242074294507, Routing: "adaptive"}},
		{"minimd", "charm-lb", 1, MiniMDRebalanceEvery + 1, Metrics{TimePerIter: 508127, Total: 2540636, Events: 12081, Kernels: 960, NetBytes: 116458528, NetMsgs: 961,
			MaxLinkUtil: 0.6078934565990562, MeanLinkUtil: 0.39255032991739075, Routing: "adaptive"}},
	}
	cfg := machine.Summit(4)
	cfg.Net.PodSize = 2
	cfg.Fabric = &netsim.FabricConfig{Taper: 8, UplinksPerPod: 1, Routing: netsim.RoutingAdaptive}
	for _, g := range fabric {
		checkGolden(t, machine.MustNew(cfg), g)
	}
}

// checkGolden runs g on m with the app's defaults for m's node count.
func checkGolden(t *testing.T, m *machine.Machine, g goldenRun) {
	t.Helper()
	a, err := ByName(g.app)
	if err != nil {
		t.Fatal(err)
	}
	p := a.Defaults(m.Cfg.Nodes)
	p.Warmup, p.Iters = g.warmup, g.iters
	run, err := a.BuildRun(m, g.variant, p)
	if err != nil {
		t.Fatalf("%s/%s: %v", g.app, g.variant, err)
	}
	if got := run(); got != g.want {
		t.Errorf("%s/%s on %d nodes:\n got %+v\nwant %+v", g.app, g.variant, m.Cfg.Nodes, got, g.want)
	}
}
