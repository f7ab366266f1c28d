package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/obs"
)

func TestRunRequiresMode(t *testing.T) {
	err := run(nil)
	if err == nil {
		t.Fatal("no-args run succeeded")
	}
	// The usage line names every mode run dispatches.
	for _, mode := range []string{"train", "platform", "node", "adapt"} {
		if !strings.Contains(err.Error(), mode) {
			t.Errorf("usage %q does not name mode %s", err, mode)
		}
	}
	if err := run([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("bogus mode: %v", err)
	}
}

func TestTrainAndAdaptEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "model.json")

	// Silence the CLI's stdout chatter during tests.
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

	err = run([]string{"train", "-dataset", "synthetic", "-nodes", "8", "-t", "20", "-t0", "5", "-save", ckPath})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	err = run([]string{"adapt", "-dataset", "synthetic", "-nodes", "8", "-checkpoint", ckPath, "-target", "0", "-steps", "2"})
	if err != nil {
		t.Fatalf("adapt: %v", err)
	}
}

func TestTrainRejectsBadDataset(t *testing.T) {
	if err := run([]string{"train", "-dataset", "imagenet", "-t", "10", "-t0", "5"}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestAdaptRequiresCheckpoint(t *testing.T) {
	if err := run([]string{"adapt"}); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("missing -checkpoint: %v", err)
	}
	if err := run([]string{"adapt", "-checkpoint", "/nonexistent/model.json"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAdaptRejectsOutOfRangeTarget(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "model.json")
	old := os.Stdout
	devNull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devNull
	err := run([]string{"train", "-dataset", "synthetic", "-nodes", "8", "-t", "10", "-t0", "5", "-save", ckPath})
	os.Stdout = old
	devNull.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"adapt", "-checkpoint", ckPath, "-nodes", "8", "-target", "99"}); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestAdaptDetectsDimensionMismatch(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "model.json")
	old := os.Stdout
	devNull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devNull
	err := run([]string{"train", "-dataset", "synthetic", "-nodes", "8", "-t", "10", "-t0", "5", "-save", ckPath})
	os.Stdout = old
	devNull.Close()
	if err != nil {
		t.Fatal(err)
	}
	// A synthetic checkpoint (60-dim) against the MNIST workload (784-dim).
	if err := run([]string{"adapt", "-checkpoint", ckPath, "-dataset", "mnist", "-nodes", "8", "-target", "0"}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestCommonFlagWorkloads(t *testing.T) {
	for _, dataset := range []string{"synthetic", "mnist", "sent140", "rec", "fault"} {
		c := &commonFlags{cfg: core.Config{Seed: 1}, dataset: dataset, nodes: 8, k: 5}
		fed, m, err := c.buildWorkload()
		if err != nil {
			t.Fatalf("%s: %v", dataset, err)
		}
		if fed == nil || m == nil {
			t.Fatalf("%s: nil workload", dataset)
		}
		if m.NumParams() <= 0 {
			t.Fatalf("%s: empty model", dataset)
		}
	}
}

// quiet redirects stdout to /dev/null for the duration of fn.
func quiet(t *testing.T, fn func() error) error {
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

func TestTrainWithChaosScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos CLI run in -short mode")
	}
	err := quiet(t, func() error {
		return run([]string{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3",
			"-t", "30", "-t0", "5", "-seed", "7",
			"-round-timeout", "500ms", "-guard", "25",
			"-chaos", "1:kill@2,1:revive@4,2:corrupt@3", "-chaos-seed", "11"})
	})
	if err != nil {
		t.Fatalf("chaos train: %v", err)
	}
}

func TestTrainRejectsBadChaosScenario(t *testing.T) {
	err := run([]string{"train", "-t", "10", "-t0", "5",
		"-round-timeout", "100ms", "-chaos", "1:explode@2"})
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("bad scenario: %v", err)
	}
}

func TestTrainCheckpointAndResume(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "run.state")
	args := []string{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3",
		"-t", "20", "-t0", "5", "-seed", "3", "-state", statePath}
	if err := quiet(t, func() error { return run(args) }); err != nil {
		t.Fatalf("train with -state: %v", err)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("run state not written: %v", err)
	}
	// Resuming from the completed run's snapshot must succeed (the platform
	// sees the final round already done and finishes immediately).
	if err := quiet(t, func() error { return run(append(args, "-resume")) }); err != nil {
		t.Fatalf("train -resume: %v", err)
	}
}

func TestTrainResumeRequiresState(t *testing.T) {
	if err := run([]string{"train", "-t", "10", "-t0", "5", "-resume"}); err == nil {
		t.Error("-resume without -state accepted")
	}
}

func TestTrainFromCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "d.csv")
	var b strings.Builder
	for c := 0; c < 4; c++ {
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "%d,%d,0.5,%d\n", c, i%7, c)
		}
	}
	if err := os.WriteFile(csvPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	devNull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devNull
	err := run([]string{"train", "-dataset", "csv", "-csv", csvPath, "-csv-dim", "3",
		"-nodes", "6", "-k", "3", "-t", "10", "-t0", "5"})
	os.Stdout = old
	devNull.Close()
	if err != nil {
		t.Fatalf("csv train: %v", err)
	}
	// Missing flags must error.
	if err := run([]string{"train", "-dataset", "csv", "-t", "10", "-t0", "5"}); err == nil {
		t.Error("csv without path accepted")
	}
}

// TestTrainMetricsOut drives the full -metrics-out path: a chaos run must
// leave a parseable, schema-versioned JSONL trail with one record per
// round, monotone round numbers, and a loss attached to the sampled rounds.
func TestTrainMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	err := quiet(t, func() error {
		return run([]string{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3",
			"-t", "30", "-t0", "5", "-seed", "7",
			"-round-timeout", "500ms", "-guard", "25",
			"-chaos", "1:kill@2,1:revive@4", "-chaos-seed", "11",
			"-metrics-out", path})
	})
	if err != nil {
		t.Fatalf("train -metrics-out: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 6 {
		t.Fatalf("only %d metric records for a 6-round run", len(lines))
	}
	prevRound := 0
	sawLoss := false
	for k, line := range lines {
		var rec obs.RoundRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d unparseable: %v", k+1, err)
		}
		if rec.Schema != obs.SchemaVersion {
			t.Fatalf("line %d schema %d, want %d", k+1, rec.Schema, obs.SchemaVersion)
		}
		if rec.Round <= prevRound {
			t.Fatalf("line %d round %d not above %d", k+1, rec.Round, prevRound)
		}
		prevRound = rec.Round
		if rec.Loss != nil {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Error("no record carries the sampled meta-loss")
	}
}

// TestTrainMetricsOutRejectsBadPath surfaces sink-creation failures instead
// of silently training without metrics.
func TestTrainMetricsOutRejectsBadPath(t *testing.T) {
	err := run([]string{"train", "-t", "10", "-t0", "5",
		"-metrics-out", filepath.Join(t.TempDir(), "no", "such", "dir", "m.jsonl")})
	if err == nil {
		t.Error("unwritable metrics path accepted")
	}
}

// TestPprofListenFailureLeavesNoMetricsFile: a bad -pprof address fails the
// run before the metrics sink is created, so no empty file is left behind.
func TestPprofListenFailureLeavesNoMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.jsonl")
	err := quiet(t, func() error {
		return run([]string{"train", "-t", "10", "-t0", "5", "-metrics-out", path, "-pprof", "bad::addr"})
	})
	if err == nil || !strings.Contains(err.Error(), "pprof listen") {
		t.Errorf("bad -pprof address: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed run left %s behind (stat: %v)", path, err)
	}
}

// TestPlatformValidatesBeforeListening: a platform whose Config is invalid
// reports it at once instead of first waiting for every node to connect.
func TestPlatformValidatesBeforeListening(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"platform", "-addr", "127.0.0.1:0", "-nodes", "4", "-t", "21", "-t0", "5"})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "T=21 must be a multiple of T0=5") {
			t.Errorf("platform -t 21 -t0 5: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("platform -t 21 -t0 5 still waiting for nodes after 2s")
	}
}

// TestRobustZeroT0Rejected: -robust derives its regeneration spacing from
// T0, and a zero T0 must surface as the config error, not a division panic.
func TestRobustZeroT0Rejected(t *testing.T) {
	err := quiet(t, func() error { return run([]string{"train", "-t", "10", "-t0", "0", "-robust"}) })
	if err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Errorf("-t0 0 -robust: %v", err)
	}
}
