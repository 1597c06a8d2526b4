package main

import (
	"strings"
	"testing"
)

// TestCheckFlags covers the negative -maxnodes and -iters that claims
// refuses, naming the flag, and the defaults it accepts.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		maxNodes, iters int
		want            string // substring of the error, or "" for none
	}{
		{0, 0, ""},
		{2, 2, ""},
		{-1, 0, "bad -maxnodes -1"},
		{0, -1, "bad -iters -1"},
	}
	for _, c := range cases {
		err := checkFlags(c.maxNodes, c.iters)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: refused with %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: got %v, want an error containing %q", c, err, c.want)
		}
	}
}
