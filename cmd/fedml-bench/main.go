// Command fedml-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	fedml-bench -list                 # show available experiments
//	fedml-bench -exp fig2a            # run one experiment (CI scale)
//	fedml-bench -exp all -paper       # run everything at paper scale
//	fedml-bench -par-bench            # measure parallel speedup on fig2a
//	fedml-bench -scale-bench -paper   # measure fleet-scale sharded throughput
//	fedml-bench -async-bench          # measure async vs sync rounds/sec under latency skew
//	fedml-bench -energy-bench         # measure accuracy-per-joule of partial vs full sync
//	fedml-bench -workloads-bench      # run the rec/fault personalization matrices and check the gap
//
// Each experiment prints the same rows/series the paper reports; the
// per-experiment index lives in DESIGN.md §4.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/edgeai/fedml/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedml-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedml-bench", flag.ContinueOnError)
	var (
		exp         = fs.String("exp", "all", "experiment id (see -list) or \"all\"")
		paper       = fs.Bool("paper", false, "run at the paper's scale instead of the fast CI scale")
		list        = fs.Bool("list", false, "list available experiments and exit")
		parBench    = fs.Bool("par-bench", false, "benchmark the fig2a grid at GOMAXPROCS=1 and doubling up to the current GOMAXPROCS, verify identical output, and report the speedup")
		scaleBench  = fs.Bool("scale-bench", false, "benchmark fleet-scale two-tier aggregation (ext-scale) and report rounds/sec")
		asyncBench  = fs.Bool("async-bench", false, "benchmark buffered-async vs sync round throughput under latency skew (ext-async)")
		energyBench = fs.Bool("energy-bench", false, "measure accuracy-per-joule of head-only partial sync vs full sync (ext-energy) and check the savings floor")
		workBench   = fs.Bool("workloads-bench", false, "run the ext-rec and ext-fault personalization matrices and check FedML's adapted accuracy beats the global baselines")
		out         = fs.String("out", "", "with -par-bench, -scale-bench, -async-bench, -energy-bench, or -workloads-bench: merge the measurement into this keyed JSON file")
		codecs      = fs.String("codec", "", "with -exp ext-codec: comma-separated update codecs to compare, first is the baseline (default raw,f16,q8,topk)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Description)
		}
		return nil
	}

	scale := experiments.ScaleCI
	if *paper {
		scale = experiments.ScalePaper
	}

	if *parBench {
		return runParBench(scale, *out)
	}
	if *scaleBench {
		return runScaleBench(scale, *out)
	}
	if *asyncBench {
		return runAsyncBench(scale, *out)
	}
	if *energyBench {
		return runEnergyBench(scale, *out)
	}
	if *workBench {
		return runWorkloadsBench(scale, *out)
	}

	if *codecs != "" {
		if *exp != "ext-codec" {
			return fmt.Errorf("-codec only applies to -exp ext-codec (got -exp %s)", *exp)
		}
		cfg := experiments.DefaultExtCodecConfig(scale)
		cfg.Codecs = strings.Split(*codecs, ",")
		start := time.Now()
		res, err := experiments.RunExtCodec(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("=== ext-codec (scale=%s, %.1fs) ===\n%s\n", scale, time.Since(start).Seconds(), res.Render())
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}

	for _, id := range ids {
		start := time.Now()
		out, err := experiments.Run(id, scale)
		if err != nil {
			return err
		}
		fmt.Printf("=== %s (scale=%s, %.1fs) ===\n%s\n", id, scale, time.Since(start).Seconds(), out)
	}
	return nil
}

// parBenchPoint is one leg of the speedup curve: the fig2a grid timed at a
// GOMAXPROCS (the worker count of its fan-outs), relative to the serial leg.
type parBenchPoint struct {
	Workers    int     `json:"workers"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

// parBenchReport is the JSON shape stored under "par_bench".
type parBenchReport struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	// GOMAXPROCS and Workers record the actual parallelism of the run, so a
	// snapshot taken on a small machine is honest about what it compared.
	// The sweep ends at the starting GOMAXPROCS, so the two are equal.
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
	// Degenerate marks a run whose effective parallelism never exceeded 1 —
	// a single-core host, or GOMAXPROCS=1 — so Speedup measures worker-pool
	// overhead, not scaling.
	Degenerate      bool `json:"degenerate,omitempty"`
	OutputIdentical bool `json:"output_identical"`
	// Curve is the multi-worker sweep (doubling counts up to Workers);
	// ParallelNs/Speedup above mirror its last (largest) leg.
	Curve []parBenchPoint `json:"curve"`
}

// degenerateRun reports whether a serial-vs-parallel comparison ran at
// effective parallelism ≤ 1, either because the largest parallel leg had
// one worker or because the host has a single CPU for all of them.
func degenerateRun(workers, cpus int) bool {
	return workers <= 1 || cpus <= 1
}

// workerSweep returns the worker counts of the speedup curve: doubling from
// 2 up to and including max, or just {1} when max ≤ 1.
func workerSweep(max int) []int {
	if max <= 1 {
		return []int{1}
	}
	var counts []int
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, max)
}

// scaleBenchReport is the JSON shape stored under "ext_scale".
type scaleBenchReport struct {
	Scale            string  `json:"scale"`
	Nodes            int     `json:"nodes"`
	Shards           int     `json:"shards"`
	Dim              int     `json:"dim"`
	Rounds           int     `json:"rounds"`
	ElapsedNs        int64   `json:"elapsed_ns"`
	RoundsPerSec     float64 `json:"rounds_per_sec"`
	NodeRoundsPerSec float64 `json:"node_rounds_per_sec"`
	StatsParity      bool    `json:"stats_parity"`
	MaxClosedFormErr float64 `json:"max_closed_form_err"`
}

// benchKeys are the families BENCH_experiments.json may hold; anything else
// found in the file (e.g. the legacy flat par-bench shape) is dropped on the
// next write.
var benchKeys = []string{"par_bench", "ext_scale", "async_skew", "ext_energy", "ext_rec", "ext_fault"}

// mergeBenchEntry read-modify-writes one family entry into the keyed
// measurement file, preserving the other families' entries.
func mergeBenchEntry(path, key string, entry any) error {
	doc := map[string]json.RawMessage{}
	if blob, err := os.ReadFile(path); err == nil {
		var prev map[string]json.RawMessage
		if json.Unmarshal(blob, &prev) == nil {
			for _, k := range benchKeys {
				if v, ok := prev[k]; ok {
					doc[k] = v
				}
			}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("bench merge read %s: %w", path, err)
	}
	blob, err := json.Marshal(entry)
	if err != nil {
		return fmt.Errorf("bench marshal %s: %w", key, err)
	}
	doc[key] = blob
	// MarshalIndent re-indents the embedded raw entries consistently.
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("bench marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// runParBench times the fig2a grid at GOMAXPROCS 1 and then across a
// doubling sweep of GOMAXPROCS up to the starting value (every fan-out of
// the experiment runs on GOMAXPROCS workers), checks every rendered output is
// byte-identical to the serial one (the par contract), and prints — and
// optionally writes — the speedup curve. GOMAXPROCS is restored on return.
func runParBench(scale experiments.Scale, outPath string) error {
	workers := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(workers)
	runtime.GOMAXPROCS(1)
	start := time.Now()
	serialOut, err := experiments.Run("fig2a", scale)
	if err != nil {
		return fmt.Errorf("par-bench serial run: %w", err)
	}
	serialNs := time.Since(start).Nanoseconds()

	curve := make([]parBenchPoint, 0, 8)
	for _, w := range workerSweep(workers) {
		runtime.GOMAXPROCS(w)
		start = time.Now()
		parOut, err := experiments.Run("fig2a", scale)
		if err != nil {
			return fmt.Errorf("par-bench GOMAXPROCS=%d run: %w", w, err)
		}
		ns := time.Since(start).Nanoseconds()
		if parOut != serialOut {
			return fmt.Errorf("par-bench: GOMAXPROCS=1 and GOMAXPROCS=%d outputs differ — determinism contract violated", w)
		}
		curve = append(curve, parBenchPoint{Workers: w, ParallelNs: ns, Speedup: float64(serialNs) / float64(ns)})
	}

	last := curve[len(curve)-1]
	rep := parBenchReport{
		Experiment:      "fig2a",
		Scale:           scale.String(),
		GOMAXPROCS:      workers,
		Workers:         workers,
		SerialNs:        serialNs,
		ParallelNs:      last.ParallelNs,
		Speedup:         last.Speedup,
		Degenerate:      degenerateRun(workers, runtime.NumCPU()),
		OutputIdentical: true,
	}
	rep.Curve = curve
	fmt.Printf("par-bench fig2a (scale=%s): serial %.2fs\n", rep.Scale, float64(serialNs)/1e9)
	for _, p := range curve {
		fmt.Printf("  workers=%-3d %.2fs, speedup %.2fx\n", p.Workers, float64(p.ParallelNs)/1e9, p.Speedup)
	}
	if rep.Degenerate {
		fmt.Println("par-bench: effective parallelism never exceeded 1 — the speedup measures worker-pool overhead, not scaling")
	}
	if outPath != "" {
		if err := mergeBenchEntry(outPath, "par_bench", rep); err != nil {
			return err
		}
	}
	return nil
}

// asyncBenchReport is the JSON shape stored under "async_skew".
type asyncBenchReport struct {
	Scale        string  `json:"scale"`
	Nodes        int     `json:"nodes"`
	SyncRounds   int     `json:"sync_rounds"`
	AsyncRounds  int     `json:"async_rounds"`
	SyncNs       int64   `json:"sync_ns"`
	AsyncNs      int64   `json:"async_ns"`
	SyncRate     float64 `json:"sync_rounds_per_sec"`
	AsyncRate    float64 `json:"async_rounds_per_sec"`
	Speedup      float64 `json:"speedup"`
	RelGap       float64 `json:"objective_rel_gap"`
	StaleApplied int     `json:"stale_applied"`
	StaleDropped int     `json:"stale_dropped"`
}

// runAsyncBench measures the ext-async experiment — buffered-async vs the
// sync gather barrier under a 10x latency straggler — and merges the round
// throughputs into the measurement file.
func runAsyncBench(scale experiments.Scale, outPath string) error {
	res, err := experiments.RunExtAsync(experiments.DefaultExtAsyncConfig(scale))
	if err != nil {
		return fmt.Errorf("async-bench: %w", err)
	}
	fmt.Print(res.Render())
	if res.Speedup < 2 {
		return fmt.Errorf("async-bench: speedup %.2fx below the 2x floor", res.Speedup)
	}
	if res.RelGap > 0.05 {
		return fmt.Errorf("async-bench: objective gap %.1f%% above the 5%% bound", 100*res.RelGap)
	}
	if outPath != "" {
		rep := asyncBenchReport{
			Scale:        scale.String(),
			Nodes:        res.Nodes,
			SyncRounds:   res.SyncRounds,
			AsyncRounds:  res.AsyncRounds,
			SyncNs:       res.SyncElapsed.Nanoseconds(),
			AsyncNs:      res.AsyncElapsed.Nanoseconds(),
			SyncRate:     res.SyncRate,
			AsyncRate:    res.AsyncRate,
			Speedup:      res.Speedup,
			RelGap:       res.RelGap,
			StaleApplied: res.StaleApplied,
			StaleDropped: res.StaleDropped,
		}
		if err := mergeBenchEntry(outPath, "async_skew", rep); err != nil {
			return err
		}
	}
	return nil
}

// energyBenchArm is one sync policy's bill in the "ext_energy" entry.
type energyBenchArm struct {
	Arm            string  `json:"arm"`
	TotalJoules    float64 `json:"total_joules"`
	TotalKiB       float64 `json:"total_kib"`
	FinalAcc       float64 `json:"final_acc"`
	JoulesRatio    float64 `json:"joules_ratio_vs_full"`
	BudgetFiltered int     `json:"budget_filtered"`
}

// energyBenchReport is the JSON shape stored under "ext_energy".
type energyBenchReport struct {
	Scale   string           `json:"scale"`
	Profile string           `json:"profile"`
	Arms    []energyBenchArm `json:"arms"`
}

// runEnergyBench runs the ext-energy experiment and enforces its headline
// claim as a gate: head-only sync within 2 accuracy points of full sync at
// >= 3x fewer modeled joules on the lora-like profile.
func runEnergyBench(scale experiments.Scale, outPath string) error {
	res, err := experiments.RunExtEnergy(experiments.DefaultExtEnergyConfig(scale))
	if err != nil {
		return fmt.Errorf("energy-bench: %w", err)
	}
	fmt.Print(res.Render())
	full, head := 0, 1
	if gap := res.FinalAcc[full] - res.FinalAcc[head]; gap > 0.02 {
		return fmt.Errorf("energy-bench: head-sync accuracy %.4f more than 2 points below full-sync %.4f",
			res.FinalAcc[head], res.FinalAcc[full])
	}
	if res.TotalJoules[head] > res.TotalJoules[full]/3 {
		return fmt.Errorf("energy-bench: head-sync spent %.0f J, above 1/3 of full-sync %.0f J",
			res.TotalJoules[head], res.TotalJoules[full])
	}
	if outPath != "" {
		rep := energyBenchReport{Scale: scale.String(), Profile: res.Profile}
		for i, name := range res.Arms {
			rep.Arms = append(rep.Arms, energyBenchArm{
				Arm:            name,
				TotalJoules:    res.TotalJoules[i],
				TotalKiB:       res.TotalKiB[i],
				FinalAcc:       res.FinalAcc[i],
				JoulesRatio:    res.TotalJoules[full] / res.TotalJoules[i],
				BudgetFiltered: res.BudgetFiltered[i],
			})
		}
		if err := mergeBenchEntry(outPath, "ext_energy", rep); err != nil {
			return err
		}
	}
	return nil
}

// workloadBenchArm is one algorithm's row in a workload's personalization
// matrix entry.
type workloadBenchArm struct {
	Arm        string  `json:"arm"`
	GlobalAcc  float64 `json:"global_acc"`
	AdaptedAcc float64 `json:"adapted_acc"`
	Gap        float64 `json:"gap"`
	KiB        float64 `json:"kib"`
}

// workloadBenchPoint is one point of the fedml arm's accuracy/traffic
// trajectory.
type workloadBenchPoint struct {
	KiB int     `json:"kib"`
	Acc float64 `json:"acc"`
}

// workloadBenchReport is the JSON shape stored under "ext_rec"/"ext_fault".
type workloadBenchReport struct {
	Scale      string               `json:"scale"`
	Workload   string               `json:"workload"`
	AdaptSteps int                  `json:"adapt_steps"`
	TotalKiB   float64              `json:"total_kib"`
	Trajectory []workloadBenchPoint `json:"trajectory"`
	Arms       []workloadBenchArm   `json:"arms"`
}

// runWorkloadsBench runs the ext-rec and ext-fault comparison matrices and
// enforces the personalization claim as a gate on both: FedML's adapted
// accuracy must be at least the global accuracy of FedAvg and FedProx.
func runWorkloadsBench(scale experiments.Scale, outPath string) error {
	for _, workload := range []string{"rec", "fault"} {
		res, err := experiments.RunExtWorkload(experiments.DefaultExtWorkloadConfig(workload, scale))
		if err != nil {
			return fmt.Errorf("workloads-bench %s: %w", workload, err)
		}
		fmt.Print(res.Render())
		pers := map[string]float64{}
		for i, name := range res.Arms {
			pers[name+"/global"] = res.Pers[i].Global
			pers[name+"/adapted"] = res.Pers[i].Adapted
		}
		for _, baseline := range []string{"fedavg", "fedprox"} {
			if pers["fedml/adapted"] < pers[baseline+"/global"] {
				return fmt.Errorf("workloads-bench %s: FedML adapted %.4f below %s global %.4f",
					workload, pers["fedml/adapted"], baseline, pers[baseline+"/global"])
			}
		}
		if outPath != "" {
			rep := workloadBenchReport{
				Scale:      scale.String(),
				Workload:   workload,
				AdaptSteps: res.AdaptSteps,
				TotalKiB:   res.KiB[0],
			}
			if res.AccVsKiB != nil {
				for _, p := range res.AccVsKiB.Points {
					rep.Trajectory = append(rep.Trajectory, workloadBenchPoint{KiB: p.Iter, Acc: p.Value})
				}
			}
			for i, name := range res.Arms {
				rep.Arms = append(rep.Arms, workloadBenchArm{
					Arm:        name,
					GlobalAcc:  res.Pers[i].Global,
					AdaptedAcc: res.Pers[i].Adapted,
					Gap:        res.Pers[i].Gap(),
					KiB:        res.KiB[i],
				})
			}
			if err := mergeBenchEntry(outPath, "ext_"+workload, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// runScaleBench measures the ext-scale experiment — the two-tier topology at
// fleet size — and merges rounds/sec into the measurement file.
func runScaleBench(scale experiments.Scale, outPath string) error {
	cfg := experiments.DefaultExtScaleConfig(scale)
	res, err := experiments.RunExtScale(cfg)
	if err != nil {
		return fmt.Errorf("scale-bench: %w", err)
	}
	fmt.Print(res.Render())
	if !res.StatsParity {
		return fmt.Errorf("scale-bench: root stats diverged from shard sum: %+v", res.Root)
	}
	if outPath != "" {
		rep := scaleBenchReport{
			Scale:            scale.String(),
			Nodes:            res.Nodes,
			Shards:           res.Shards,
			Dim:              res.Dim,
			Rounds:           res.Rounds,
			ElapsedNs:        res.Elapsed.Nanoseconds(),
			RoundsPerSec:     res.RoundsPerSec,
			NodeRoundsPerSec: res.NodeRoundsPerSec,
			StatsParity:      res.StatsParity,
			MaxClosedFormErr: res.MaxClosedFormErr,
		}
		if err := mergeBenchEntry(outPath, "ext_scale", rep); err != nil {
			return err
		}
	}
	return nil
}
