package checkpoint

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validRunState() *RunState {
	return &RunState{
		Version: RunStateVersion,
		Round:   3, Iter: 15, T0: 5,
		Dispersion: 0.25,
		Theta:      []float64{0.1, -0.2, 0.3},
		Counters:   Counters{Rounds: 3, Messages: 18, Bytes: 432, Dropped: 1, Rejoined: 1, Rejected: 2},
	}
}

func TestRunStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	want := validRunState()
	if err := SaveRunState(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != want.Round || got.Iter != want.Iter || got.T0 != want.T0 ||
		got.Dispersion != want.Dispersion || got.Dropped != want.Dropped ||
		got.Rejoined != want.Rejoined || got.Rejected != want.Rejected ||
		got.Messages != want.Messages || got.Bytes != want.Bytes {
		t.Errorf("round trip mismatch: got %+v want %+v", got, want)
	}
	for i, v := range want.Theta {
		if got.Theta[i] != v {
			t.Errorf("theta[%d] = %v, want %v", i, got.Theta[i], v)
		}
	}
}

func TestRunStateOverwriteKeepsLatest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	s := validRunState()
	if err := SaveRunState(path, s); err != nil {
		t.Fatal(err)
	}
	s.Round, s.Iter, s.Rounds = 4, 20, 4
	if err := SaveRunState(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 4 {
		t.Errorf("round = %d, want 4 (latest snapshot)", got.Round)
	}
	// The atomic write must not leave temp files behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stale temp file left behind: %s", e.Name())
		}
	}
}

func TestRunStateMissingFileIsNotExist(t *testing.T) {
	_, err := LoadRunState(filepath.Join(t.TempDir(), "nope.state"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

func TestRunStateValidation(t *testing.T) {
	bad := []*RunState{
		func() *RunState { s := validRunState(); s.Version = 99; return s }(),
		func() *RunState { s := validRunState(); s.Round = 0; return s }(),
		func() *RunState { s := validRunState(); s.Iter = 0; return s }(),
		func() *RunState { s := validRunState(); s.T0 = 0; return s }(),
		func() *RunState { s := validRunState(); s.Theta = nil; return s }(),
		func() *RunState { s := validRunState(); s.Theta[1] = math.NaN(); return s }(),
	}
	path := filepath.Join(t.TempDir(), "run.state")
	for i, s := range bad {
		if err := SaveRunState(path, s); err == nil {
			t.Errorf("bad run state %d saved", i)
		}
	}
}

func TestRunStateRejectsGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunState(path); err == nil {
		t.Fatal("garbage run state loaded")
	}
}
