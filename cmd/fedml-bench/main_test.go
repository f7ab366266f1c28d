package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// silenceStdout redirects stdout to /dev/null for the duration of fn.
func silenceStdout(t *testing.T, fn func() error) error {
	t.Helper()
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devNull
	defer func() {
		os.Stdout = old
		devNull.Close()
	}()
	return fn()
}

func TestListFlag(t *testing.T) {
	if err := silenceStdout(t, func() error { return run([]string{"-list"}) }); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	err := silenceStdout(t, func() error { return run([]string{"-exp", "fig99"}) })
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment: %v", err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := silenceStdout(t, func() error { return run([]string{"-exp", "table1"}) }); err != nil {
		t.Fatal(err)
	}
}

func TestBadFlag(t *testing.T) {
	// flag.ContinueOnError surfaces parse failures as errors, not exits.
	err := silenceStdout(t, func() error { return run([]string{"-definitely-not-a-flag"}) })
	if err == nil {
		t.Error("bad flag accepted")
	}
}

// Regression for the Degenerate flag: it used to be derived from the host
// alone, so a run whose parallel legs had one worker on a multi-core box was
// recorded as a non-degenerate ~1.0× "speedup". It must depend on the
// parallelism the run actually used.
func TestDegenerateRun(t *testing.T) {
	cases := []struct {
		workers, cpus int
		want          bool
	}{
		{workers: 1, cpus: 8, want: true}, // the original bug: GOMAXPROCS=1 on a multi-core host
		{workers: 8, cpus: 1, want: true}, // single-core host: workers contend for one CPU
		{workers: 1, cpus: 1, want: true},
		{workers: 2, cpus: 2, want: false},
		{workers: 8, cpus: 8, want: false},
	}
	for _, c := range cases {
		if got := degenerateRun(c.workers, c.cpus); got != c.want {
			t.Errorf("degenerateRun(workers=%d, cpus=%d) = %v, want %v", c.workers, c.cpus, got, c.want)
		}
	}
}

func TestWorkerSweep(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{max: 0, want: []int{1}},
		{max: 1, want: []int{1}},
		{max: 2, want: []int{2}},
		{max: 3, want: []int{2, 3}},
		{max: 6, want: []int{2, 4, 6}},
		{max: 8, want: []int{2, 4, 8}},
		{max: 9, want: []int{2, 4, 8, 9}},
	}
	for _, c := range cases {
		got := workerSweep(c.max)
		if len(got) != len(c.want) {
			t.Errorf("workerSweep(%d) = %v, want %v", c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("workerSweep(%d) = %v, want %v", c.max, got, c.want)
				break
			}
		}
	}
}

// TestWorkloadsBenchWritesKeys runs the rec/fault matrices at CI scale,
// checks the personalization gate passes, and verifies both entries land in
// the keyed measurement file with the schema expcheck validates.
func TestWorkloadsBenchWritesKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("eight training runs are slow")
	}
	out := filepath.Join(t.TempDir(), "exp.json")
	if err := silenceStdout(t, func() error {
		return run([]string{"-workloads-bench", "-out", out})
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]struct {
		Workload   string `json:"workload"`
		Trajectory []struct {
			KiB int     `json:"kib"`
			Acc float64 `json:"acc"`
		} `json:"trajectory"`
		Arms []struct {
			Arm        string   `json:"arm"`
			GlobalAcc  *float64 `json:"global_acc"`
			AdaptedAcc *float64 `json:"adapted_acc"`
		} `json:"arms"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ext_rec", "ext_fault"} {
		entry, ok := doc[key]
		if !ok {
			t.Fatalf("%s missing from %s", key, out)
		}
		if len(entry.Arms) != 4 {
			t.Errorf("%s: %d arms, want 4", key, len(entry.Arms))
		}
		for _, a := range entry.Arms {
			if a.Arm == "" || a.GlobalAcc == nil || a.AdaptedAcc == nil {
				t.Errorf("%s: incomplete arm row %+v", key, a)
			}
		}
		if len(entry.Trajectory) == 0 {
			t.Errorf("%s: missing accuracy/traffic trajectory", key)
		}
	}
}
