package main

import (
	"fmt"
	"math"
	"os"
)

// compare applies BENCHMARK.json's bounds to two results.json files of the
// full command: one row per (workload, end-to-end metric), judged by the
// rule of the choosing-metrics guide.

// absoluteSlack is how far a metric may move before a relative bound is
// consulted at all: set-up times are a few tens of milliseconds, where 25 %
// is scheduler noise.
var absoluteSlack = map[string]float64{"setup_s": 0.05}

// failedShareSlack is the absolute bound on failed_op_share, which has no
// relative bound because it is 0 at the baseline.
const failedShareSlack = 0.01

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type resultsFile struct {
	Records []record `json:"records"`
}

// timedRecords indexes the untraced records of a results file by workload.
func timedRecords(path string) (map[string]record, error) {
	var rf resultsFile
	if err := readJSON(path, &rf); err != nil {
		return nil, err
	}
	out := make(map[string]record)
	for _, r := range rf.Records {
		if !r.Traced {
			out[r.Workload] = r
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no timed records", path)
	}
	return out, nil
}

// judge compares one metric. a and b are the medians, sa and sb the
// per-episode samples behind them. It returns "ok", "worse" or "unresolved".
func judge(better string, bound, slack, a, b float64, sa, sb []float64) string {
	sign := 1.0 // lower is better: worse means b > a
	if better == "higher" {
		sign = -1
	}
	worseBy := sign * (b - a)
	if worseBy <= math.Max(bound*math.Abs(a), slack) {
		return "ok"
	}
	// Worse than the bound allows. If either side's own spread is wider
	// than the bound the medians cannot carry that verdict.
	if spread(sa) > bound || spread(sb) > bound {
		return "unresolved"
	}
	return "worse"
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (A is the baseline; run from the repository root)")
		return 2
	}
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := timedRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := timedRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	worse := 0
	row := func(workload, metric string, va, vb float64, verdict string) {
		fmt.Printf("%-18s %-22s %14.6g %14.6g  %s\n", workload, metric, va, vb, verdict)
		if verdict == "worse" {
			worse++
		}
	}
	for _, w := range workloads {
		ra, okA := a[w.name]
		rb, okB := b[w.name]
		if !okA || !okB {
			row(w.name, "(record)", 0, 0, "worse")
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			row(w.name, m.Name, va, vb,
				judge(m.Better, m.Bound, absoluteSlack[m.Name], va, vb, ra.Samples[m.Name], rb.Samples[m.Name]))
		}
		fa := float64(ra.Failed) / float64(ra.Attempted)
		fb := float64(rb.Failed) / float64(rb.Attempted)
		verdict := "ok"
		if fb > fa+failedShareSlack {
			verdict = "worse"
		}
		row(w.name, "failed_op_share", fa, fb, verdict)
	}
	if worse > 0 {
		fmt.Printf("%d rows worse\n", worse)
		return 1
	}
	return 0
}
