package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// repeatFile is what -repeat writes per workload and -compare reads.
type repeatFile struct {
	Workload string               `json:"workload"`
	Seeds    []uint64             `json:"seeds"`
	Seconds  float64              `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Runs     map[string][]float64 `json:"runs"` // metric → one value per run, in run order
}

// spread is (q3 − q1) ÷ median with Python's statistics.quantiles(n=4)
// quartiles — the figure the driver holds against a metric's bound.
func spread(xs []float64) (q1, q2, q3, rel float64) {
	q1, q2, q3 = quartiles(xs)
	if q2 != 0 {
		rel = (q3 - q1) / math.Abs(q2)
	}
	return
}

// suggestBound is the rule BENCHMARK.json's bounds were set by: at least
// 5%, at least three times the measured spread, at most the contract's
// 25%; a count that repeats exactly gets 0.
func suggestBound(rel float64, exact bool) float64 {
	if exact {
		return 0
	}
	return math.Min(0.25, math.Max(0.05, math.Ceil(3*rel*100)/100))
}

// repeatMain runs each workload n times — on consecutive seeds when
// vary is set, as the driver does — and prints the per-metric median,
// quartiles and spread.
func repeatMain(ctx context.Context, names []string, seed uint64, vary bool, seconds float64, trace, quick bool, n int, outDir string) int {
	code := 0
	for _, name := range names {
		rf := repeatFile{Workload: name, Seconds: seconds, Trace: trace, Runs: map[string][]float64{}}
		for i := 0; i < n; i++ {
			s := seed
			if vary {
				s += uint64(i)
			}
			res, out, err := runWorkload(ctx, name, s, seconds, trace, quick, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, s, err)
				return 1
			}
			if !res.Correct {
				code = 1
				for _, f := range out.failures {
					fmt.Printf("   FAILED (seed %d): %s\n", s, f)
				}
			}
			rf.Seeds = append(rf.Seeds, s)
			for k, v := range res.Metrics {
				rf.Runs[k] = append(rf.Runs[k], v.Value)
			}
			rf.Runs["ops_attempted"] = append(rf.Runs["ops_attempted"], float64(res.Attempted))
			rf.Runs["ops_failed"] = append(rf.Runs["ops_failed"], float64(res.Failed))
			fmt.Printf("%s run %d/%d (seed %d) done\n", name, i+1, n, s)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d\n", name, n, rf.Seeds[0], rf.Seeds[n-1])
		fmt.Printf("   %-34s %13s %13s %13s %8s %6s\n", "metric", "q1", "median", "q3", "iqr/med", "bound")
		for _, d := range append(defs, metricDef{Name: "ops_attempted"}, metricDef{Name: "ops_failed"}) {
			xs := sorted(rf.Runs[d.Name])
			q1, q2, q3, rel := spread(xs)
			exact := xs[0] == xs[len(xs)-1]
			fmt.Printf("   %-34s %13.6g %13.6g %13.6g %7.2f%% %6.2f\n", d.Name, q1, q2, q3, 100*rel, suggestBound(rel, exact))
		}
		data, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(outDir, "repeat-"+name+".json"), append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// compareMain prints the paired comparison of two -repeat outputs of the
// same workload (parent first): per metric the two medians, the change in
// the metric's worse direction as a share of the parent's median, the
// parent's own spread, and how many run pairs the change won.
func compareMain(list string) int {
	paths := splitList(list)
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare wants two files: parent.json,change.json")
		return 2
	}
	var files [2]repeatFile
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 1
		}
	}
	parent, change := files[0], files[1]
	if parent.Workload != change.Workload || parent.Trace != change.Trace {
		fmt.Fprintf(os.Stderr, "bench: %s and %s hold different workloads or trace modes\n", paths[0], paths[1])
		return 1
	}
	defs := endToEnd
	if parent.Trace {
		defs = perLayer
	}
	fmt.Printf("== %s: parent %d runs, change %d runs\n", parent.Workload, len(parent.Seeds), len(change.Seeds))
	fmt.Printf("   %-34s %13s %13s %9s %9s %7s\n", "metric", "parent med", "change med", "worse by", "parent iqr", "wins")
	for _, d := range defs {
		a, b := parent.Runs[d.Name], change.Runs[d.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		_, ma, _, rel := spread(a)
		mb := median(b)
		worse := 0.0
		if ma != 0 {
			worse = (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
		}
		wins, pairs := 0, min(len(a), len(b))
		for i := 0; i < pairs; i++ {
			if (d.Better == "higher" && b[i] > a[i]) || (d.Better != "higher" && b[i] < a[i]) {
				wins++
			}
		}
		fmt.Printf("   %-34s %13.6g %13.6g %8.2f%% %8.2f%% %4d/%d\n", d.Name, ma, mb, 100*worse, 100*rel, wins, pairs)
	}
	return 0
}
