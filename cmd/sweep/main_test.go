package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gat/internal/bench"
)

// TestListColumnsAlign checks that every row of -list's scenario and
// profile tables starts each column at its header's offset, whatever
// the length of the longest name or machine.
func TestListColumnsAlign(t *testing.T) {
	var buf bytes.Buffer
	listScenarios(&buf)
	lines := strings.Split(buf.String(), "\n")
	tables := 0
	for i := 0; i < len(lines); i++ {
		head := lines[i]
		if !strings.HasPrefix(strings.TrimSpace(head), "SCENARIO") && !strings.HasPrefix(strings.TrimSpace(head), "PROFILE") {
			continue
		}
		tables++
		// Column starts: each header word's first byte.
		var starts []int
		for j := range head {
			if head[j] != ' ' && (j == 0 || head[j-1] == ' ') {
				starts = append(starts, j)
			}
		}
		rows := 0
		for _, row := range lines[i+1:] {
			if row == "" {
				break
			}
			rows++
			for k, at := range starts {
				if len(row) <= at || row[at] == ' ' || (k > 0 && row[at-1] != ' ') {
					t.Errorf("row %q: column %d does not start at the header's offset %d", row, k, at)
				}
			}
		}
		if rows == 0 {
			t.Errorf("table under %q has no rows", head)
		}
	}
	if tables != 2 {
		t.Fatalf("found %d tables in -list output, want 2:\n%s", tables, buf.String())
	}
}

// TestSizeWarnings covers the undersized runs that print flat figures:
// a taper sweep on a machine inside one pod (jacobi-taper, hotspot) and
// a load-balancing run that ends before its first rebalance
// (minimd-lb). Each gets one line naming the size it needs, and runs at
// that size get none.
func TestSizeWarnings(t *testing.T) {
	cases := []struct {
		id   string
		opt  bench.Options
		want string // substring of the one warning line, or "" for none
	}{
		{"jacobi-taper", bench.Options{MaxNodes: 4}, "jacobi-taper: 4 nodes fit in one 18-node pod"},
		{"jacobi-taper", bench.Options{MaxNodes: 4}, "needs -maxnodes 36"},
		{"jacobi-taper", bench.Options{MaxNodes: 36}, ""},
		{"jacobi-taper", bench.Options{}, ""},
		{"hotspot", bench.Options{MaxNodes: 4}, "hotspot: 3 nodes fit in one 16-node pod"},
		{"hotspot", bench.Options{MaxNodes: 4}, "needs -maxnodes 48"},
		{"hotspot", bench.Options{MaxNodes: 24}, ""},
		{"hotspot", bench.Options{MaxNodes: 23}, "12 nodes fit in one 16-node pod"},
		{"minimd-lb", bench.Options{Iters: 2}, "minimd-lb: -iters 2 ends each run before the load balancer first runs, after step 4"},
		{"minimd-lb", bench.Options{Iters: 4}, "needs -iters 5 or more"},
		{"minimd-lb", bench.Options{Iters: 5}, ""},
		{"minimd-lb", bench.Options{MaxNodes: 4}, ""},
		{"fig7a", bench.Options{MaxNodes: 1, Iters: 1}, ""},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		sizeWarnings(&buf, []string{c.id}, c.opt, bench.Overrides{})
		got := buf.String()
		if c.want == "" {
			if got != "" {
				t.Errorf("%s %+v: warned %q, want nothing", c.id, c.opt, got)
			}
			continue
		}
		if strings.Count(got, "\n") != 1 || !strings.HasPrefix(got, "sweep: warning: ") || !strings.Contains(got, c.want) {
			t.Errorf("%s %+v: warned %q, want one line containing %q", c.id, c.opt, got, c.want)
		}
	}
}

// TestCheckFlags covers the options no sweep can honor: each is refused
// with an error naming its flag, and the defaults pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		opt  bench.Options
		want string // substring of the error, or "" for none
	}{
		{bench.Options{Shards: 1}, ""},
		{bench.Options{MaxNodes: 16, Iters: 3, Warmup: 1, Jitter: 0.05, Shards: 1}, ""},
		{bench.Options{Iters: -1, Shards: 1}, "bad -iters -1"},
		{bench.Options{Warmup: -2, Shards: 1}, "bad -warmup -2"},
		{bench.Options{MaxNodes: -1, Shards: 1}, "bad -maxnodes -1"},
		{bench.Options{Jitter: math.NaN(), Shards: 1}, "bad -jitter NaN"},
		{bench.Options{Jitter: math.Inf(1), Shards: 1}, "bad -jitter +Inf"},
		{bench.Options{Jitter: -0.1, Shards: 1}, "bad -jitter -0.1"},
		{bench.Options{Jitter: 1, Shards: 1}, "bad -jitter 1"},
		{bench.Options{Shards: 0}, "bad -shards 0"},
		{bench.Options{Jitter: 0.1, Shards: 2}, "-shards 2 is incompatible with -jitter"},
	}
	for _, c := range cases {
		err := checkFlags(c.opt)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: refused with %v", c.opt, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: got %v, want an error containing %q", c.opt, err, c.want)
		}
	}
}
