package sim

import (
	"testing"
	"testing/quick"
)

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wakeups []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		wakeups = append(wakeups, p.Now())
		p.Sleep(15)
		wakeups = append(wakeups, p.Now())
	})
	e.Run()
	if len(wakeups) != 2 || wakeups[0] != 10 || wakeups[1] != 25 {
		t.Fatalf("wakeups = %v, want [10 25]", wakeups)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20) // wakes at 30
		order = append(order, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "b20")
	})
	e.Run()
	want := []string{"a10", "b20", "a30"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcDoneSignal(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("worker", func(p *Proc) { p.Sleep(42) })
	var doneAt Time = -1
	p.Done().OnFire(e, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 42 {
		t.Fatalf("done fired at %v, want 42", doneAt)
	}
}

func TestSignalWaitBeforeFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	var sawAt Time = -1
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(s)
		sawAt = p.Now()
	})
	e.Schedule(100, func() { s.Fire(e) })
	e.Run()
	if sawAt != 100 {
		t.Fatalf("waiter resumed at %v, want 100", sawAt)
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	e.Schedule(5, func() { s.Fire(e) })
	var sawAt Time = -1
	e.Spawn("late", func(p *Proc) {
		p.Sleep(50)
		p.Wait(s) // already fired: no block
		sawAt = p.Now()
	})
	e.Run()
	if sawAt != 50 {
		t.Fatalf("late waiter resumed at %v, want 50", sawAt)
	}
}

func TestSignalDoubleFireIsNoop(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	count := 0
	s.OnFire(e, func() { count++ })
	s.Fire(e)
	s.Fire(e)
	e.Run()
	if count != 1 {
		t.Fatalf("callback ran %d times, want 1", count)
	}
}

// TestWaitSetMemberFiresBeforeWait adds two members to a group and
// sleeps before waiting, so one member (or both) fires between Add and
// Wait. The group must resume when the last member fires, and not park
// at all when every member has fired.
func TestWaitSetMemberFiresBeforeWait(t *testing.T) {
	for _, c := range []struct{ sleep, want Time }{{10, 20}, {30, 30}} {
		e := NewEngine()
		early, late := NewSignal(), NewSignal()
		e.FireAt(5, early)
		e.FireAt(20, late)
		resumed := Time(-1)
		e.Spawn("w", func(p *Proc) {
			g := p.NewWaitSet()
			g.Add(early)
			g.Add(late)
			p.Sleep(c.sleep)
			g.Wait()
			resumed = p.Now()
		})
		e.Run()
		if resumed != c.want {
			t.Fatalf("sleep %v: group wait resumed at %v, want %v (-1: still parked)", c.sleep, resumed, c.want)
		}
	}
}

// TestProcPanicReachesRunCaller checks that a panic in a resumed proc
// unwinds out of the Run call that resumed it, with its value, at the
// time the proc panicked.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	e.FireAt(7, s)
	e.Spawn("p", func(p *Proc) {
		p.Wait(s)
		panic("boom")
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run's caller recovered %v, want boom", got)
	}
	if e.Now() != 7 {
		t.Fatalf("clock at %v after the panic, want 7", e.Now())
	}
}

func TestAllOf(t *testing.T) {
	e := NewEngine()
	a, b, c := NewSignal(), NewSignal(), NewSignal()
	all := AllOf(e, a, b, c)
	var at Time = -1
	all.OnFire(e, func() { at = e.Now() })
	e.Schedule(10, func() { a.Fire(e) })
	e.Schedule(30, func() { c.Fire(e) })
	e.Schedule(20, func() { b.Fire(e) })
	e.Run()
	if at != 30 {
		t.Fatalf("AllOf fired at %v, want 30", at)
	}
}

func TestAllOfEmpty(t *testing.T) {
	e := NewEngine()
	if !AllOf(e).Fired() {
		t.Fatal("AllOf() should be pre-fired")
	}
}

func TestCounter(t *testing.T) {
	e := NewEngine()
	c := NewCounter(3)
	fired := false
	c.Done().OnFire(e, func() { fired = true })
	c.Add(e)
	c.Add(e)
	if c.Remaining() != 1 {
		t.Fatalf("remaining = %d, want 1", c.Remaining())
	}
	c.Add(e)
	e.Run()
	if !fired {
		t.Fatal("counter did not fire at zero")
	}
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	c.Add(e)
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Schedule(10, func() { q.Push(e, 1) })
	e.Schedule(20, func() { q.Push(e, 2); q.Push(e, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v, want [1 2 3]", got)
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string]()
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push(e, "x")
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q,%v", v, ok)
	}
	e.Run()
}

// Property: a proc sleeping a sequence of durations wakes at the prefix
// sums of those durations.
func TestProcSleepSumProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		e := NewEngine()
		var wakes []Time
		e.Spawn("p", func(p *Proc) {
			for _, d := range durs {
				p.Sleep(Time(d))
				wakes = append(wakes, p.Now())
			}
		})
		e.Run()
		var sum Time
		for i, d := range durs {
			sum += Time(d)
			if wakes[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves FIFO order for arbitrary push sequences.
func TestQueueOrderProperty(t *testing.T) {
	f := func(vals []int32) bool {
		e := NewEngine()
		q := NewQueue[int32]()
		var got []int32
		e.Spawn("c", func(p *Proc) {
			for range vals {
				got = append(got, q.Pop(p))
			}
		})
		for i, v := range vals {
			v := v
			e.Schedule(Time(i), func() { q.Push(e, v) })
		}
		e.Run()
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var log []Time
		s := NewSignal()
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Sleep(Time(i * 7 % 3))
				p.Wait(s)
				log = append(log, p.Now()+Time(i))
			})
		}
		e.Schedule(9, func() { s.Fire(e) })
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic run lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}
