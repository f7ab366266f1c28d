package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
)

// RunStateVersion identifies the mid-training snapshot format. Version 1 was
// JSON; version 2 is the binary layout below. Any change to the layout bumps
// it.
const RunStateVersion = 2

// RunState is a platform-side mid-training snapshot: everything
// core.RunPlatform needs to resume a crashed run at the next round. Unlike
// Checkpoint (a finished, adaptation-ready model), RunState is training
// plumbing: it carries the loop counters and communication accounting
// alongside θ.
//
// On disk it is one little-endian file (DESIGN.md §7, "Platform crash"):
//
//	offset  size  field
//	     0     4  magic "FMRS"
//	     4     1  format version (RunStateVersion)
//	     5   8·3  Round, Iter, T0 (i64)
//	    29     8  Dispersion (IEEE-754 bits)
//	    37    80  obs.Totals, its binary block (obs.BlockSize)
//	   117     4  n = len(Theta) (u32)
//	   121   8·n  Theta (IEEE-754 bits)
//	     …     4  CRC-32C (Castagnoli) of every byte before it
type RunState struct {
	Version int
	// Round is the last completed (aggregated) global round.
	Round int
	// Iter is the cumulative local-iteration count after Round.
	Iter int
	// T0 is the per-round local step count in effect (the adaptive-T0
	// controller's latest choice).
	T0 int
	// Dispersion is the last measured update dispersion, fed back to the
	// T0 controller on resume.
	Dispersion float64
	// Theta is the aggregated global parameter vector after Round.
	Theta []float64

	// Totals is the communication accounting carried across the crash.
	// Every counter is a fixed header field of the snapshot, so adding one
	// changes the layout and bumps RunStateVersion.
	obs.Totals
}

// Errors LoadRunState wraps, with the path and the figures, when a file is
// not a snapshot this binary can resume from. Test with errors.Is.
var (
	// ErrRunStateV1 is a snapshot written by a JSON-era binary. It is
	// refused rather than read as "no snapshot", because a fresh start would
	// silently discard the run's progress.
	ErrRunStateV1 = errors.New("v1 JSON run state; this binary reads v2")
	// ErrRunStateMagic is a file that does not start with the magic.
	ErrRunStateMagic = errors.New("not a run-state file")
	// ErrRunStateVersion is a binary snapshot of another format version.
	ErrRunStateVersion = errors.New("unsupported run-state format version")
	// ErrRunStateLength is a file shorter than the header, or whose length
	// is not header + 8·n + 4 for the n it declares (truncated, extended, or
	// a count that claims more parameters than the file holds).
	ErrRunStateLength = errors.New("run-state length does not match its parameter count")
	// ErrRunStateChecksum is a file whose CRC-32C does not match its bytes.
	ErrRunStateChecksum = errors.New("run-state checksum mismatch")
)

const (
	runStateMagic = "FMRS"
	// runStateFields is the number of 8-byte header fields before the
	// counters: Round, Iter, T0, Dispersion.
	runStateFields = 4
	// runStateHeader is the byte size of everything before Theta.
	runStateHeader = 4 + 1 + 8*runStateFields + obs.BlockSize + 4
	runStateCRC    = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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

// encodeRunState lays s out in one buffer of exactly
// runStateHeader + 8·len(s.Theta) + runStateCRC bytes.
func encodeRunState(s *RunState) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, runStateHeader+8*len(s.Theta)+runStateCRC)
	buf = append(buf, runStateMagic...)
	buf = append(buf, byte(s.Version))
	for _, f := range [runStateFields]uint64{uint64(s.Round), uint64(s.Iter), uint64(s.T0), math.Float64bits(s.Dispersion)} {
		buf = le.AppendUint64(buf, f)
	}
	buf = s.Totals.AppendBlock(buf)
	buf = le.AppendUint32(buf, uint32(len(s.Theta)))
	for _, v := range s.Theta {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return le.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeRunState parses a snapshot's bytes; the caller validates the result.
// Every structural check — magic, version, exact length for the declared
// count, checksum — runs before θ is allocated, so what it allocates never
// exceeds len(data).
func decodeRunState(data []byte) (*RunState, error) {
	le := binary.LittleEndian
	switch {
	case len(data) > 0 && data[0] == '{':
		return nil, ErrRunStateV1
	case len(data) < runStateHeader+runStateCRC:
		return nil, fmt.Errorf("%w: %d bytes, header and checksum alone take %d", ErrRunStateLength, len(data), runStateHeader+runStateCRC)
	case string(data[:4]) != runStateMagic:
		return nil, fmt.Errorf("%w: magic %q", ErrRunStateMagic, data[:4])
	case data[4] != RunStateVersion:
		return nil, fmt.Errorf("%w: %d, this binary reads %d", ErrRunStateVersion, data[4], RunStateVersion)
	}
	n := le.Uint32(data[runStateHeader-4:])
	if want := runStateHeader + 8*uint64(n) + runStateCRC; uint64(len(data)) != want {
		return nil, fmt.Errorf("%w: %d bytes for %d parameters, want %d", ErrRunStateLength, len(data), n, want)
	}
	body := len(data) - runStateCRC
	if got, want := crc32.Checksum(data[:body], castagnoli), le.Uint32(data[body:]); got != want {
		return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrRunStateChecksum, got, want)
	}
	var f [runStateFields]uint64
	for i := range f {
		f[i] = le.Uint64(data[5+8*i:])
	}
	s := &RunState{
		Version: int(data[4]),
		Round:   int(f[0]), Iter: int(f[1]), T0: int(f[2]),
		Dispersion: math.Float64frombits(f[3]),
		Theta:      make([]float64, n),
	}
	s.Totals.ReadBlock(data[5+8*runStateFields:])
	for i, off := 0, runStateHeader; i < len(s.Theta); i, off = i+1, off+8 {
		s.Theta[i] = math.Float64frombits(le.Uint64(data[off:]))
	}
	return s, nil
}

// SaveRunState atomically writes s to path: the snapshot is encoded into one
// buffer, written to a temporary file in the same directory, synced, and
// renamed over path, so a crash (even kill -9) mid-write can never destroy
// the previous snapshot. It only reads s.Theta and keeps no reference to it,
// so the caller may pass its live θ and modify it once SaveRunState returns.
func SaveRunState(path string, s *RunState) error {
	if err := s.Validate(); err != nil {
		return err
	}
	data := encodeRunState(s)
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
// treat as "start fresh"; any other failure — including a v1 JSON snapshot
// (ErrRunStateV1) — is an error to stop on, never a fresh start.
func LoadRunState(path string) (*RunState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read run state: %w", err)
	}
	s, err := decodeRunState(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: run state %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
