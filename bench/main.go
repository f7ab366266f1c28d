// Command bench is the repository's benchmark: six workloads that each
// stress a different layer, eight end-to-end metrics measured in an untraced
// timed run, and per-layer metrics measured in a separate traced pass (spans
// around every transport.Link, the program's own counters, and probes).
//
//	go run ./bench -seed 1 -out build/bench            every workload, both passes
//	go run ./bench -workload tcp_softmax_comm -trace 0 one workload, timed run
//	go run ./bench compare A.json B.json               apply BENCHMARK.json's bounds
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	// out receives results, records and trace files, and holds the scratch
	// directories of the checkpoint/JSONL workload and the probes; the
	// benchmark writes nowhere else.
	out     string
	quick   bool
	control bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print its result line (default: all, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "how long one pass measures")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced timed run (end-to-end metrics), 1 = traced pass + probes (per-layer metrics)")
	flag.StringVar(&o.out, "out", filepath.Join("build", "bench"), "directory for results.json, per-pass records and trace files")
	flag.BoolVar(&o.quick, "quick", false, "tiny round counts and two episodes per pass: a smoke run, not a measurement")
	flag.BoolVar(&o.control, "control", false, "with -workload: run its control variant (the stressed layer taken out)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// The reference box has two cores; more than four would hide the
	// run-queue contention the 16-node workloads are built around.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	if o.workload != "" {
		err = runOne(o)
	} else {
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o options) scale() string {
	if o.quick {
		return "quick"
	}
	return "full"
}

func recordPath(out, workload string, traced bool) string {
	pass := "timed"
	if traced {
		pass = "traced"
	}
	return filepath.Join(out, fmt.Sprintf("record.%s.%s.json", workload, pass))
}

// runOne measures one pass of one workload in this process, writes its full
// record under -out and prints the result line last.
func runOne(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.control {
		if w, err = w.controlVariant(); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	rec, err := measure(w, o)
	if err != nil {
		return err
	}
	rec.Control = o.control
	if err := writeJSON(recordPath(o.out, w.name, rec.Traced), rec); err != nil {
		return err
	}
	for _, c := range rec.Checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "bench: %s: check %s failed: %s\n", w.name, c.Name, c.Detail)
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: correctness checks failed", w.name)
	}
	return nil
}

// runAll runs every workload, timed pass then traced pass, each pass in a
// fresh child process so set-up time and peak RSS are honest, then prints
// every metric and writes results.json.
func runAll(o options) error {
	started := time.Now()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	var records []*record
	var failed []string
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-out", o.out,
			}
			if o.quick {
				args = append(args, "-quick")
			}
			// A stale record must not stand in for a pass that dies early.
			_ = os.Remove(recordPath(o.out, w.name, trace == 1))
			// The child's result line is for other drivers; this one reads the
			// full record the child writes.
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			var rec record
			if err := readJSON(recordPath(o.out, w.name, trace == 1), &rec); err != nil || runErr != nil {
				// A pass that errors is a workload on which every operation
				// failed.
				failed = append(failed, fmt.Sprintf("%s (trace %d): %v", w.name, trace, errors.Join(runErr, err)))
				fmt.Printf("%-18s %-42s %14g %s\n", w.name, "failed_op_share", 1.0, "ratio")
				continue
			}
			if !rec.Correct {
				failed = append(failed, fmt.Sprintf("%s (trace %d): correctness checks", w.name, trace))
			}
			records = append(records, &rec)
			printRecord(&rec)
		}
	}
	results := struct {
		Env     envStamp  `json:"env"`
		Seed    uint64    `json:"seed"`
		Scale   string    `json:"scale"`
		WallS   float64   `json:"wall_s"`
		Records []*record `json:"records"`
	}{stampEnv(), o.seed, o.scale(), time.Since(started).Seconds(), records}
	if err := writeJSON(filepath.Join(o.out, "results.json"), results); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.0f s)\n", filepath.Join(o.out, "results.json"), results.WallS)
	if len(failed) > 0 {
		return fmt.Errorf("%d passes failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

func printRecord(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("%-18s %-42s %14.6g %s\n", rec.Workload, name, m.Value, m.Unit)
	}
	if !rec.Traced {
		fmt.Printf("%-18s %-42s %14.6g %s\n", rec.Workload, "failed_op_share",
			float64(rec.Failed)/float64(rec.Attempted), "ratio")
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
