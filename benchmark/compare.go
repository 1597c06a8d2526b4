package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// loadRuns reads the untraced records of a results file. arg is FILE or
// FILE:LABEL, the latter keeping only records written with that -label.
func loadRuns(arg string) ([]record, error) {
	path, label, labelled := arg, "", false
	if i := strings.LastIndex(arg, ":"); i > 0 && strings.HasSuffix(arg[:i], ".json") {
		path, label, labelled = arg[:i], arg[i+1:], true
	}
	f, err := readResults(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, r := range f.Runs {
		if !r.Trace && (!labelled || r.Label == label) {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced runs", arg)
	}
	return out, nil
}

// values collects one metric of one workload across runs, in file order.
func values(runs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// judgement is the outcome for one (workload, metric) pair.
type judgement struct {
	verdict     string
	won, pairs  int
	parent, chg [3]float64 // quartiles
}

// judge applies the rule a change must pass on one metric. Runs pair up
// in file order. The change improved the metric when it wins at least
// nine tenths of at least ten pairs (ties count for neither) and its
// median differs from the parent's by more than the parent's own spread,
// the distance between its quartiles. It regressed when its median is
// worse than the parent's by more than the bound. Where the parent's
// spread is wider than the bound the pair is unresolved, unless every
// change run reads better than every parent run.
func judge(d metricDef, parent, change []float64) judgement {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	j := judgement{parent: quartiles(parent), chg: quartiles(change), pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.won++
		}
	}
	mp, mc := j.parent[1], j.chg[1]
	spread := j.parent[2] - j.parent[0]
	worse := (mc - mp) / mp
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case j.pairs >= 10 && 10*j.won >= 9*j.pairs && math.Abs(mc-mp) > spread && better(mc, mp):
		j.verdict = "improved"
	case worse > d.Bound:
		j.verdict = "regressed"
	case spread/mp > d.Bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// compareFiles prints, for every workload and end-to-end metric both
// files hold, each side's quartiles, the share of pairs the change won
// and the verdict against the metric's bound.
func compareFiles(parentArg, changeArg string, w io.Writer) error {
	parent, err := loadRuns(parentArg)
	if err != nil {
		return err
	}
	change, err := loadRuns(changeArg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-12s %-32s %-32s %-8s %s\n", "WORKLOAD", "METRIC",
		"PARENT q1/median/q3 (n)", "CHANGE q1/median/q3 (n)", "WON", "VERDICT (bound)")
	for _, wl := range allWorkloads() {
		for _, d := range endToEnd {
			p, c := values(parent, wl.name, d.Name), values(change, wl.name, d.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			j := judge(d, p, c)
			fmt.Fprintf(w, "%-18s %-12s %-32s %-32s %-8s %s (%g)\n", wl.name, d.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", j.parent[0], j.parent[1], j.parent[2], len(p)),
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", j.chg[0], j.chg[1], j.chg[2], len(c)),
				fmt.Sprintf("%d/%d", j.won, j.pairs), j.verdict, d.Bound)
		}
	}
	return nil
}
