package main

import (
	"strings"
	"testing"
)

// TestCheckFlags covers the iteration, ODF and residual values jacobi3d
// refuses, naming the flag, and the defaults it accepts.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		iters, warmup, odf, residual int
		want                         string // substring of the error, or "" for none
	}{
		{10, 3, 1, 0, ""},
		{1, 1, 8, 5, ""},
		{-1, 3, 1, 0, "bad -iters -1"},
		{0, 3, 1, 0, "bad -iters 0"},
		{10, 0, 1, 0, "bad -warmup 0"},
		{10, 3, -2, 0, "bad -odf -2"},
		{10, 3, 1, -1, "bad -residual -1"},
	}
	for _, c := range cases {
		err := checkFlags(c.iters, c.warmup, c.odf, c.residual)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: refused with %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: got %v, want an error containing %q", c, err, c.want)
		}
	}
}
