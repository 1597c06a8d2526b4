package sim

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(100, func() { ran++ })
	e.RunUntil(50)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("ran = %d after Run, want 2", ran)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay not clamped to now")
	}
}

// Property: events scheduled with arbitrary non-negative delays fire in
// sorted time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine executes exactly one event per scheduled callback.
func TestEventCountProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		for _, d := range delays {
			e.Schedule(Time(d), func() {})
		}
		e.Run()
		return e.EventsExecuted() == uint64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.50us"},
		{2500000, "2.50ms"},
		{3 * Second, "3.000s"},
		{-1500, "-1.50us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestDurationOf(t *testing.T) {
	cases := []struct {
		name        string
		bytes       int64
		bytesPerSec float64
		want        Time
	}{
		// Exact divisions: the quotient is an integer nanosecond count.
		{"exact 1ns", 23, 23e9, 1},
		{"exact 1us", 1000, 1e9, 1 * Microsecond},
		{"exact 1s", 12_500_000_000, 12.5e9, Second},
		{"zero bytes", 0, 1e9, 0},
		// Fractional results: round half-up, never truncate.
		{"0.5ns rounds up", 1, 2e9, 1},               // 0.5 ns
		{"0.25ns rounds down", 1, 4e9, 0},            // 0.25 ns
		{"0.75ns rounds up", 3, 4e9, 1},              // 0.75 ns
		{"just under half", 49, 100e9, 0},            // 0.49 ns
		{"just over half", 51, 100e9, 1},             // 0.51 ns
		{"large fractional", 1 << 20, 12.5e9, 83886}, // 83886.08 ns
		// The longest transfer at 1 byte/s that a Time can hold.
		{"largest at 1 B/s", 4_611_686_018, 1, 4_611_686_018 * Second},
	}
	for _, c := range cases {
		if got := DurationOf(c.bytes, c.bytesPerSec); got != c.want {
			t.Errorf("%s: DurationOf(%d, %g) = %v, want %v", c.name, c.bytes, c.bytesPerSec, got, c.want)
		}
	}
	// A miswired bandwidth, or a duration at or past maxTime, panics
	// instead of wrapping to a negative Time.
	for _, c := range []struct {
		name        string
		bytes       int64
		bytesPerSec float64
	}{
		{"zero bandwidth", 1, 0},
		{"negative bandwidth", 1, -1},
		{"NaN bandwidth", 1, math.NaN()},
		{"one byte past the largest at 1 B/s", 4_611_686_019, 1},
		{"1 TiB at 1 B/s", 1 << 40, 1},
		{"largest int64 at 1 GB/s", math.MaxInt64, 1e9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: DurationOf(%d, %g) did not panic", c.name, c.bytes, c.bytesPerSec)
				}
			}()
			DurationOf(c.bytes, c.bytesPerSec)
		}()
	}
}

// TestTimedHoldSteadyStateAllocs pins the timed store's steady state:
// once a constant-depth hold workload (pop the earliest event, push its
// replacement) has run long enough for the store to reach its working
// size, further Steps allocate nothing — the bucket slab, the table and
// the chunk pool stop growing. The shapes are those of
// BenchmarkEventQueue (uniform gaps), BenchmarkEventQueueBimodal (half
// the gaps ~1ms longer) and BenchmarkEventQueueTies (the whole depth on
// one instant), plus bursts of k events per instant, the shape of a
// symmetric machine whose k components finish a step together. A store
// whose per-time-slot chains keep regrowing as the clock advances — a
// calendar queue's buckets — allocates megabytes over the same window.
func TestTimedHoldSteadyStateAllocs(t *testing.T) {
	uniform := func(rng *RNG) Time { return Time(1 + rng.Intn(1000)) }
	// perEvent seeds depth events that each reschedule themselves
	// after their own gap.
	perEvent := func(gap func(*RNG) Time) func(*Engine, *RNG, int) {
		return func(e *Engine, rng *RNG, depth int) {
			var fn func()
			fn = func() { e.Schedule(gap(rng), fn) }
			for i := 0; i < depth; i++ {
				fn()
			}
		}
	}
	// burst seeds depth/k cohorts of k events on one instant each; the
	// first of a cohort to fire draws the gap that all k take to the
	// cohort's next instant.
	burst := func(k int) func(*Engine, *RNG, int) {
		return func(e *Engine, rng *RNG, depth int) {
			for c := 0; c < depth/k; c++ {
				last, gap := Time(-1), Time(0)
				var fn func()
				fn = func() {
					if e.Now() != last {
						last, gap = e.Now(), uniform(rng)
					}
					e.Schedule(gap, fn)
				}
				first := uniform(rng)
				for i := 0; i < k; i++ {
					e.Schedule(first, fn)
				}
			}
		}
	}
	shapes := []struct {
		name string
		fill func(*Engine, *RNG, int)
	}{
		{"uniform", perEvent(uniform)},
		{"bimodal", perEvent(func(rng *RNG) Time {
			d := uniform(rng)
			if rng.Intn(2) == 1 {
				d += 1_000_000
			}
			return d
		})},
		{"ties", perEvent(func(*RNG) Time { return 1000 })},
		{"burst1", burst(1)},
		{"burst8", burst(8)},
		{"burst64", burst(64)},
	}
	const steps = 1 << 18
	const budget = 64 << 10 // bytes
	for _, sh := range shapes {
		for _, depth := range []int{1 << 10, 1 << 14} {
			e := NewEngine()
			sh.fill(e, NewRNG(1), depth)
			for i := 0; i < steps; i++ {
				e.Step()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				e.Step()
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
				t.Errorf("%s hold at depth %d: %d bytes allocated over %d steady-state steps, budget %d",
					sh.name, depth, grew, steps, budget)
			}
		}
	}
}

func TestEventPayloadRoundTrip(t *testing.T) {
	// The packed single-word payload must survive the round trip for
	// both event forms: a closure (with captured state) and a signal.
	n := 0
	fn := func() { n++ }
	ptrToFn(fnToPtr(fn))()
	if n != 1 {
		t.Fatal("packed closure did not run")
	}
	e := NewEngine()
	s := NewSignal()
	e.FireAt(5, s)
	e.Run()
	if !s.Fired() {
		t.Fatal("packed signal event did not fire")
	}
	if e.Now() != 5 {
		t.Fatalf("fire event ran at %v, want 5", e.Now())
	}
}

// TestSignalSize pins the Signal layout: signals are embedded in every
// transfer, pipe and stream record, so a field added inline grows all
// of them. Rare state belongs behind the overflow pointer.
func TestSignalSize(t *testing.T) {
	if got := unsafe.Sizeof(Signal{}); got != 64 {
		t.Fatalf("sizeof(Signal) = %d bytes, want 64", got)
	}
}

// TestEventSize pins the stored event at two pointer words: every lane
// ring slot and timed chunk slot holds one, and the order they need
// comes from the stores' FIFO order and the bucket key, not from a
// per-event sequence number.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 16 {
		t.Fatalf("sizeof(event) = %d bytes, want 16", got)
	}
}

// TestSignalOverflowOrder checks that waiters and callbacks beyond the
// inline slots still run in registration order.
func TestSignalOverflowOrder(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.OnFire(e, func() { order = append(order, i) })
	}
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Wait(s)
			order = append(order, 10+i)
		})
	}
	e.Schedule(5, func() { s.Fire(e) })
	e.Run()
	want := []int{10, 11, 12, 0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
