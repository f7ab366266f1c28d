package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/obs"
)

// helpDigests pins the SHA-256 of each mode's -h output: every flag name,
// default and usage string, byte for byte.
var helpDigests = map[string]string{
	"adapt":    "b46592b8270a743fa04b27de7d0ec0df4b22264c7a6d124943a8b3eecc3ccd00",
	"node":     "695d3f4ad3057d803c959c54ec9c1777ea5cde803119b9559b35d3259eca5878",
	"platform": "0df75bb1e0761743a9c9d14cecea2f85585d8ced48bb2dc4ade87b05c045a036",
	"train":    "d61191adebf8275396d94c96407170df25318b0c4540d6f9249d406d5367ae15",
}

// cliScenarios are the end-to-end smoke runs: small train runs through
// chaos, the sanitation guard, the codecs, shards, sync masks, the energy
// budget, async staleness and the workload generators, plus a -save
// followed by adapt. Each step is one run(...) call; "$DIR" is a
// per-scenario temporary directory, masked back to "$DIR" in the output.
// Every metrics stream a scenario writes must pass obs.ValidateJSONL.
var cliScenarios = []struct {
	name  string
	steps [][]string
}{
	{"raw", [][]string{{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3", "-t", "30", "-t0", "5", "-seed", "7"}}},
	{"chaos-guard", [][]string{{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3", "-t", "30", "-t0", "5",
		"-seed", "7", "-round-timeout", "500ms", "-guard", "25",
		"-chaos", "1:kill@2,1:revive@4,2:corrupt@3", "-chaos-seed", "11", "-metrics-out", "$DIR/m.jsonl"}}},
	{"codec-topk", [][]string{{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3", "-t", "30", "-t0", "5",
		"-seed", "7", "-codec", "topk", "-round-timeout", "500ms", "-guard", "25",
		"-chaos", "1:kill@2,1:revive@4,2:corrupt@3", "-chaos-seed", "11", "-metrics-out", "$DIR/m.jsonl"}}},
	{"shards-q8", [][]string{{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3", "-t", "30", "-t0", "5",
		"-seed", "7", "-shards", "2", "-codec", "q8", "-round-timeout", "500ms", "-guard", "25",
		"-chaos", "1:kill@2,1:revive@4,4:corrupt@3", "-chaos-seed", "11", "-metrics-out", "$DIR/m.jsonl"}}},
	{"sync-mask", [][]string{{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3", "-t", "30", "-t0", "5",
		"-seed", "7", "-sync-mask", "head:2", "-round-timeout", "500ms", "-guard", "25",
		"-chaos", "1:kill@2,1:revive@4,2:corrupt@3", "-chaos-seed", "11", "-metrics-out", "$DIR/m.jsonl"}}},
	{"sync-mask-energy", [][]string{{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3", "-t", "30", "-t0", "5",
		"-seed", "7", "-sync-mask", "head:2", "-energy-profile", "lora-like", "-energy-budget", "1",
		"-metrics-out", "$DIR/m.jsonl"}}},
	{"rec-q8", [][]string{{"train", "-dataset", "rec", "-nodes", "8", "-k", "3", "-t", "20", "-t0", "5",
		"-seed", "7", "-codec", "q8", "-metrics-out", "$DIR/m.jsonl"}}},
	{"fault-mask", [][]string{{"train", "-dataset", "fault", "-nodes", "8", "-k", "3", "-t", "20", "-t0", "5",
		"-seed", "7", "-sync-mask", "head:2", "-metrics-out", "$DIR/m.jsonl"}}},
	{"async", [][]string{{"train", "-dataset", "synthetic", "-nodes", "6", "-k", "3", "-t", "30", "-t0", "5",
		"-seed", "7", "-async", "-staleness-decay", "0.6", "-max-staleness", "1", "-async-quorum", "0.8",
		"-round-timeout", "500ms", "-guard", "25",
		"-chaos", "1:slow=40ms@2,1:slow=0s@8,2:kill@3,2:revive@5", "-chaos-seed", "11", "-metrics-out", "$DIR/m.jsonl"}}},
	{"mnist-robust", [][]string{{"train", "-dataset", "mnist", "-nodes", "8", "-t", "20", "-t0", "5",
		"-robust", "-lambda", "0.05"}}},
	{"save-adapt", [][]string{
		{"train", "-dataset", "synthetic", "-nodes", "8", "-t", "20", "-t0", "5", "-adapt-steps", "3", "-save", "$DIR/model.json"},
		{"adapt", "-dataset", "synthetic", "-nodes", "8", "-checkpoint", "$DIR/model.json", "-target", "0", "-steps", "2"},
	}},
}

// runDigests pins the SHA-256 of each scenario's stdout. amd64 only, like
// the experiment render digests: arm64 fuses multiply-adds, which moves the
// last digits of every trained θ. The async scenario has no digest: its
// straggler makes the output depend on timing.
var runDigests = map[string]string{
	"chaos-guard":      "10c0093692b60d52ea809661c1bb9ec4dc6f1604fe0352e761345989c8076ba4",
	"codec-topk":       "de03e076342cc146f6ff53c8180fb51a55c280bf3edb5e7bde2968e77aaee054",
	"fault-mask":       "7efa14bbc227a9e9820ca9357e4557e953fda04c48f5f3f1760decd7b9b5d9db",
	"mnist-robust":     "6f5ee38839d249149ea836987a4033c9e3e46f29234002cba2b46b6e1c0b0081",
	"raw":              "37abef15cfea8bdb9bd79dbbebb6e55531da4c6d91be54bb7a8f40714d546ddf",
	"rec-q8":           "23e75c36c87fbe01f79f6ee515ddc64f0447a7e796799d2dd016ee45953832b2",
	"save-adapt":       "d795235b77062574ec9fbdce46c2e225d86dfdc19c43e86c4178f3669c3f4ea9",
	"shards-q8":        "0c885e8645c02a920c72a2c160268a1d360a4d03d2942a49131484916bf3dcb0",
	"sync-mask":        "0014f46697e72f7cae5375dc8330b5a7e957b37f74fb77751d20ffe4af028308",
	"sync-mask-energy": "3f3fddc171bdaba70e419ec8175321fd27e19fb3baf84ae11dc92e2173f33c22",
}

// captureRun runs the CLI with os.Stdout and os.Stderr redirected to files
// and returns what each received.
func captureRun(t *testing.T, args []string) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	files := make([]*os.File, 2)
	for i, name := range []string{"stdout", "stderr"} {
		f, ferr := os.Create(filepath.Join(dir, name))
		if ferr != nil {
			t.Fatal(ferr)
		}
		defer f.Close()
		files[i] = f
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	err = run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	out := make([]string, 2)
	for i, f := range files {
		b, rerr := os.ReadFile(f.Name())
		if rerr != nil {
			t.Fatal(rerr)
		}
		out[i] = string(b)
	}
	return out[0], out[1], err
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestHelpPinned pins every mode's flag set: a refactor of the flag
// bindings must leave each name, default and usage string unchanged.
func TestHelpPinned(t *testing.T) {
	for mode, want := range helpDigests {
		stdout, stderr, err := captureRun(t, []string{mode, "-h"})
		if !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: err %v, want flag.ErrHelp", mode, err)
		}
		if got := digest(stdout + stderr); got != want {
			t.Errorf("%s -h: digest %s, want %q\n%s", mode, got, want, stderr)
		}
	}
}

// TestRunsPinned runs every scenario and checks each metrics stream it
// writes (the director's and every shard's). On amd64 it also pins the
// stdout: a refactor of the CLI must print the same federation, the same
// G(θ) trace, the same totals and the same adaptation curve, byte for byte.
func TestRunsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains eleven small federations")
	}
	for _, sc := range cliScenarios {
		dir := t.TempDir()
		var out strings.Builder
		for _, step := range sc.steps {
			args := make([]string, len(step))
			for i, a := range step {
				args[i] = strings.ReplaceAll(a, "$DIR", dir)
			}
			stdout, _, err := captureRun(t, args)
			if err != nil {
				t.Fatalf("%s: %v: %v", sc.name, args, err)
			}
			out.WriteString(strings.ReplaceAll(stdout, dir, "$DIR"))
		}
		streams, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range streams {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := obs.ValidateJSONL(f); err != nil {
				t.Errorf("%s: %s: %v", sc.name, filepath.Base(path), err)
			}
			f.Close()
		}
		want, pinned := runDigests[sc.name]
		if !pinned || runtime.GOARCH != "amd64" {
			continue
		}
		if got := digest(out.String()); got != want {
			t.Errorf("%s: stdout digest %s, want %q\n%s", sc.name, got, want, out.String())
		}
	}
}

// TestReadmeQuotesQuickstart keeps README.md's Quickstart honest: its
// command is the "raw" scenario's, and the fenced block under it is that
// run's stdout, byte for byte.
func TestReadmeQuotesQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small federation")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the quoted output is amd64's, not %s's", runtime.GOARCH)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	quickstart := regexp.MustCompile("(?s)## Quickstart\n\n```sh\ngo run ./cmd/fedml ([^\n]*)\n```\n\n```\n(.*?)```\n")
	m := quickstart.FindSubmatch(doc)
	if m == nil {
		t.Fatal("README.md's Quickstart no longer quotes a fedml command and its output")
	}
	args := strings.Fields(string(m[1]))
	if raw := cliScenarios[0]; raw.name != "raw" || !slices.Equal(args, raw.steps[0]) {
		t.Errorf("README.md quotes %q, the raw scenario runs %q", args, raw.steps[0])
	}
	stdout, _, err := captureRun(t, args)
	if err != nil {
		t.Fatal(err)
	}
	if string(m[2]) != stdout {
		t.Errorf("README.md's Quickstart output is stale; the command prints:\n%s", stdout)
	}
}
