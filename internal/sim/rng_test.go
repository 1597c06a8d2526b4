package sim

import "testing"

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(2)
	d := Time(1000)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(d, 0.1)
		if j < 900 || j > 1100 {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
	if r.Jitter(d, 0) != d {
		t.Fatal("zero-fraction jitter should return d unchanged")
	}
}
