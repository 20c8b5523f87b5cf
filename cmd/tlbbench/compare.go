package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minPairs is the fewest paired runs per workload compare decides on.
const minPairs = 10

// Compare verdicts.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// baselineFile is the checked-in trajectory format: named sets of run
// records, with the machine they ran on.
type baselineFile struct {
	Sets map[string][]record `json:"sets"`
}

// loadRuns reads a run set: a directory of run records as -out writes them,
// or FILE#SET, one named set of a baseline file.
func loadRuns(path string) ([]record, error) {
	if file, set, ok := strings.Cut(path, "#"); ok {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var bf baselineFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		runs, ok := bf.Sets[set]
		if !ok {
			return nil, fmt.Errorf("%s has no set %q (have %s)", file, set, strings.Join(sortedKeys(bf.Sets), ", "))
		}
		return runs, nil
	}
	names, err := filepath.Glob(filepath.Join(path, "*.json"))
	if err != nil {
		return nil, err
	}
	var runs []record
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no run records in %s", path)
	}
	return runs, nil
}

// metricComparison is one end-to-end metric of one workload, parent (A)
// against change (B).
type metricComparison struct {
	Metric  string
	A, B    [3]float64 // first quartile, median, third quartile
	Won     float64    // share of pairs B won; ties count for neither
	Spread  float64    // A's interquartile range over A's median
	Change  float64    // B's median against A's, positive when worse
	Bound   float64
	Verdict string
}

// workloadComparison is one row of the report.
type workloadComparison struct {
	Workload     string
	Pairs        int
	FailA, FailB float64 // failed over attempted, per side
	Metrics      []metricComparison
	Problem      string
}

// compareRuns pairs A's and B's untraced runs by workload and seed and
// judges every end-to-end metric: WORSE when B's median is worse than A's
// by more than the metric's bound; unresolved when A's own spread exceeds
// the bound, unless every B run is better (or, beyond the bound, worse)
// than every A run; better when B wins at least nine tenths of the pairs
// and the medians differ by more than A's interquartile range. bad reports
// a regression, a rise in fail_ratio, or too few pairs to decide.
func compareRuns(a, b []record) (rows []workloadComparison, bad bool) {
	index := func(runs []record) map[string]map[uint64]record {
		m := map[string]map[uint64]record{}
		for _, r := range runs {
			if r.Trace {
				continue
			}
			if m[r.Workload] == nil {
				m[r.Workload] = map[uint64]record{}
			}
			m[r.Workload][r.Seed] = r
		}
		return m
	}
	ia, ib := index(a), index(b)
	for _, w := range sortedKeys(ia) {
		row := workloadComparison{Workload: w}
		var seeds []uint64
		for s := range ia[w] {
			if _, ok := ib[w][s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		row.Pairs = len(seeds)
		if row.Pairs < minPairs {
			row.Problem = fmt.Sprintf("%d pairs; need at least %d", row.Pairs, minPairs)
			rows = append(rows, row)
			bad = true
			continue
		}
		var fa, aa, fb, ab float64
		for _, s := range seeds {
			fa += float64(ia[w][s].Failed)
			aa += float64(ia[w][s].Attempted)
			fb += float64(ib[w][s].Failed)
			ab += float64(ib[w][s].Attempted)
		}
		row.FailA, row.FailB = ratio(fa, aa), ratio(fb, ab)
		if row.FailB > row.FailA {
			bad = true
		}
		for _, m := range endToEnd {
			var xs, ys []float64
			for _, s := range seeds {
				xs = append(xs, ia[w][s].Metrics[m.Name].Value)
				ys = append(ys, ib[w][s].Metrics[m.Name].Value)
			}
			mc := judge(m, xs, ys)
			if mc.Verdict == verdictWorse {
				bad = true
			}
			row.Metrics = append(row.Metrics, mc)
		}
		rows = append(rows, row)
	}
	for _, w := range sortedKeys(ib) {
		if _, ok := ia[w]; !ok {
			rows = append(rows, workloadComparison{Workload: w, Problem: "no runs in A"})
			bad = true
		}
	}
	return rows, bad
}

// judge compares paired samples xs (A) and ys (B) of metric m.
func judge(m metric, xs, ys []float64) metricComparison {
	mc := metricComparison{Metric: m.Name, Bound: m.Bound}
	mc.A[0], mc.A[1], mc.A[2] = quartiles(xs)
	mc.B[0], mc.B[1], mc.B[2] = quartiles(ys)
	better := func(x, y float64) bool { // y better than x
		if m.Better == "higher" {
			return y > x
		}
		return y < x
	}
	won := 0
	for i := range xs {
		if better(xs[i], ys[i]) {
			won++
		}
	}
	mc.Won = ratio(float64(won), float64(len(xs)))
	iqr := mc.A[2] - mc.A[0]
	mc.Spread = ratio(iqr, math.Abs(mc.A[1]))
	mc.Change = ratio(mc.B[1]-mc.A[1], math.Abs(mc.A[1]))
	if m.Better == "higher" {
		mc.Change = -mc.Change
	}
	allBetter, allWorse := true, true
	for _, x := range xs {
		for _, y := range ys {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	switch {
	case mc.Spread > m.Bound && allBetter:
		mc.Verdict = verdictBetter
	case mc.Spread > m.Bound && allWorse && mc.Change > m.Bound:
		mc.Verdict = verdictWorse
	case mc.Spread > m.Bound:
		mc.Verdict = verdictUnresolved
	case mc.Change > m.Bound:
		mc.Verdict = verdictWorse
	case mc.Won >= 0.9 && math.Abs(mc.B[1]-mc.A[1]) > iqr:
		mc.Verdict = verdictBetter
	default:
		mc.Verdict = verdictSame
	}
	return mc
}

func printComparison(w io.Writer, rows []workloadComparison) {
	for _, r := range rows {
		if r.Problem != "" {
			fmt.Fprintf(w, "== %s: %s\n", r.Workload, r.Problem)
			continue
		}
		fmt.Fprintf(w, "== %s: %d pairs; fail_ratio A %g, B %g\n", r.Workload, r.Pairs, r.FailA, r.FailB)
		fmt.Fprintf(w, "%-16s %34s %34s %8s %5s %8s %6s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "won", "A spread", "bound", "verdict")
		for _, m := range r.Metrics {
			fmt.Fprintf(w, "%-16s %34s %34s %+7.2f%% %4.0f%% %7.2f%% %5.0f%%  %s\n", m.Metric,
				fmt.Sprintf("%.4g [%.4g, %.4g]", m.A[1], m.A[0], m.A[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", m.B[1], m.B[0], m.B[2]),
				100*m.Change, 100*m.Won, 100*m.Spread, 100*m.Bound, m.Verdict)
		}
		if r.FailB > r.FailA {
			fmt.Fprintf(w, "fail_ratio rose: %g -> %g\n", r.FailA, r.FailB)
		}
	}
}

// compareMain implements `tlbbench compare A B` and returns the exit status.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tlbbench compare A B  (each a directory of run records, or baseline.json#SET)")
		return 2
	}
	a, err := loadRuns(args[0])
	if err == nil {
		var b []record
		if b, err = loadRuns(args[1]); err == nil {
			fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs)\n", args[0], len(a), args[1], len(b))
			rows, bad := compareRuns(a, b)
			printComparison(w, rows)
			if bad {
				fmt.Fprintln(w, "result: regression, fail_ratio rise, or too few pairs")
				return 1
			}
			fmt.Fprintln(w, "result: no regression")
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "tlbbench compare:", err)
	return 2
}
