package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/edgeai/fedml/internal/tensor"
)

// RunStateVersion identifies the mid-training snapshot schema.
const RunStateVersion = 1

// RunState is a platform-side mid-training snapshot: everything
// core.RunPlatform needs to resume a crashed run at the next round. Unlike
// Checkpoint (a finished, adaptation-ready model), RunState is training
// plumbing: it carries the loop counters and communication accounting
// alongside θ.
type RunState struct {
	Version int `json:"version"`
	// Round is the last completed (aggregated) global round.
	Round int `json:"round"`
	// Iter is the cumulative local-iteration count after Round.
	Iter int `json:"iter"`
	// T0 is the per-round local step count in effect (the adaptive-T0
	// controller's latest choice).
	T0 int `json:"t0"`
	// Dispersion is the last measured update dispersion, fed back to the
	// T0 controller on resume.
	Dispersion float64 `json:"dispersion"`
	// Theta is the aggregated global parameter vector after Round.
	Theta []float64 `json:"theta"`

	// Counters is the communication accounting carried across the crash.
	Counters
}

// Counters mirrors core.CommStats field for field (names, types and order —
// core converts between the two, so a counter added to one and not the other
// fails to compile). The stale and budget counters were added after the
// first snapshots shipped; older snapshots decode them as zero, so no
// version bump was needed.
type Counters struct {
	Rounds         int   `json:"rounds"`
	Messages       int   `json:"messages"`
	Bytes          int64 `json:"bytes"`
	Dropped        int   `json:"dropped"`
	Rejoined       int   `json:"rejoined"`
	Rejected       int   `json:"rejected"`
	SkippedRounds  int   `json:"skipped_rounds"`
	StaleApplied   int   `json:"stale_applied,omitempty"`
	StaleDropped   int   `json:"stale_dropped,omitempty"`
	BudgetFiltered int   `json:"budget_filtered,omitempty"`
}

// Validate checks internal consistency.
func (s *RunState) Validate() error {
	switch {
	case s.Version != RunStateVersion:
		return fmt.Errorf("checkpoint: unsupported run-state version %d (want %d)", s.Version, RunStateVersion)
	case s.Round < 1 || s.Iter < 1 || s.T0 < 1:
		return fmt.Errorf("checkpoint: run state has non-positive counters (round=%d iter=%d t0=%d)", s.Round, s.Iter, s.T0)
	case len(s.Theta) == 0:
		return fmt.Errorf("checkpoint: run state has empty parameters")
	case !tensor.Vec(s.Theta).IsFinite():
		return fmt.Errorf("checkpoint: run state parameters contain NaN or Inf")
	}
	return nil
}

// SaveRunState atomically writes s to path: the snapshot is marshaled to a
// temporary file in the same directory, synced, and renamed over path, so a
// crash (even kill -9) mid-write can never destroy the previous snapshot.
func SaveRunState(path string, s *RunState) error {
	if err := s.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("checkpoint: encode run state: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: run state temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("checkpoint: write run state: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("checkpoint: sync run state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close run state: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: commit run state: %w", err)
	}
	return nil
}

// LoadRunState reads and validates a snapshot. A missing file surfaces as an
// error satisfying errors.Is(err, os.ErrNotExist), which resuming callers
// treat as "start fresh".
func LoadRunState(path string) (*RunState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read run state: %w", err)
	}
	var s RunState
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode run state %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
