package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/obs"
)

// v1RunStateFixture is the exact file the v1 (JSON) SaveRunState wrote for
// a state like validRunState with every counter set. A v2 binary must refuse
// it by name, never mistake it for a missing snapshot.
const v1RunStateFixture = `{"version":1,"round":3,"iter":15,"t0":5,"dispersion":0.25,"theta":[0.1,-0.2,0.3],"rounds":3,"messages":18,"bytes":432,"dropped":1,"rejoined":1,"rejected":2,"skipped_rounds":1,"stale_applied":4,"stale_dropped":1,"budget_filtered":2}`

func validRunState() *RunState {
	return &RunState{
		Version: RunStateVersion,
		Round:   3, Iter: 15, T0: 5,
		Dispersion: 0.25,
		Theta:      []float64{0.1, -0.2, 0.3},
		Totals:     obs.Totals{Rounds: 3, Messages: 18, Bytes: 432, Dropped: 1, Rejoined: 1, Rejected: 2},
	}
}

// everyCounterSet gives each counter a distinct non-zero value, found by
// reflection, so a counter the format forgets fails the round trip.
func everyCounterSet() obs.Totals {
	var c obs.Totals
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1000*(i+1) + 7))
	}
	return c
}

// writeLoad writes data as a snapshot file and loads it back.
func writeLoad(t *testing.T, data []byte) (*RunState, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.state")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadRunState(path)
}

func TestRunStateRoundTrip(t *testing.T) {
	big := make([]float64, 25970)
	for i := range big {
		big[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%41-20))
	}
	thetas := map[string][]float64{
		"edge-values": {
			math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.MaxFloat64, -math.MaxFloat64, 0.1, -0.2, 0.3,
		},
		"mlp25970": big,
	}
	for name, theta := range thetas {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.state")
			want := validRunState()
			want.Round, want.Iter, want.T0 = 1<<40, 1<<41+3, 7
			want.Dispersion = math.Copysign(0, -1)
			want.Theta = theta
			want.Totals = everyCounterSet()
			if err := SaveRunState(path, want); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if wantSize := int64(runStateHeader + 8*len(theta) + runStateCRC); fi.Size() != wantSize {
				t.Errorf("file is %d bytes, want header %d + 8·%d + %d = %d", fi.Size(), runStateHeader, len(theta), runStateCRC, wantSize)
			}
			got, err := LoadRunState(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Version != want.Version || got.Round != want.Round || got.Iter != want.Iter || got.T0 != want.T0 ||
				math.Float64bits(got.Dispersion) != math.Float64bits(want.Dispersion) {
				t.Errorf("header mismatch: got %d/%d/%d/%d/%v want %d/%d/%d/%d/%v",
					got.Version, got.Round, got.Iter, got.T0, got.Dispersion,
					want.Version, want.Round, want.Iter, want.T0, want.Dispersion)
			}
			if got.Totals != want.Totals {
				t.Errorf("counters: got %+v want %+v", got.Totals, want.Totals)
			}
			if len(got.Theta) != len(want.Theta) {
				t.Fatalf("len(theta) = %d, want %d", len(got.Theta), len(want.Theta))
			}
			for i, v := range want.Theta {
				if math.Float64bits(got.Theta[i]) != math.Float64bits(v) {
					t.Fatalf("theta[%d] = %v (%#x), want %v (%#x)", i, got.Theta[i], math.Float64bits(got.Theta[i]), v, math.Float64bits(v))
				}
			}
		})
	}
}

// TestSaveRunStateKeepsNoReference: the caller passes its live θ and may
// overwrite it as soon as SaveRunState returns.
func TestSaveRunStateKeepsNoReference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	s := validRunState()
	if err := SaveRunState(path, s); err != nil {
		t.Fatal(err)
	}
	s.Theta[0] = 42
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Theta[0] != 0.1 {
		t.Errorf("theta[0] = %v after the caller's write, want the saved 0.1", got.Theta[0])
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
		func() *RunState { s := validRunState(); s.Version = 1; return s }(),
		func() *RunState { s := validRunState(); s.Round = 0; return s }(),
		func() *RunState { s := validRunState(); s.Iter = 0; return s }(),
		func() *RunState { s := validRunState(); s.T0 = 0; return s }(),
		func() *RunState { s := validRunState(); s.Theta = nil; return s }(),
		func() *RunState { s := validRunState(); s.Theta[1] = math.NaN(); return s }(),
		func() *RunState { s := validRunState(); s.Theta[2] = math.Inf(-1); return s }(),
	}
	path := filepath.Join(t.TempDir(), "run.state")
	for i, s := range bad {
		if err := SaveRunState(path, s); err == nil {
			t.Errorf("bad run state %d saved", i)
		}
		// A structurally sound file carrying the same state (checksum and
		// all) must fail Validate on load.
		if _, err := writeLoad(t, encodeRunState(s)); err == nil {
			t.Errorf("bad run state %d loaded", i)
		}
	}
}

func TestRunStateRejectsGarbageFile(t *testing.T) {
	for _, garbage := range []string{"{not json", "", "not a run state, but long enough to hold a header? " + strings.Repeat("x", 200)} {
		if _, err := writeLoad(t, []byte(garbage)); err == nil {
			t.Errorf("garbage run state %q loaded", garbage)
		}
	}
}

func TestRunStateRejectsV1JSON(t *testing.T) {
	_, err := writeLoad(t, []byte(v1RunStateFixture))
	if !errors.Is(err, ErrRunStateV1) {
		t.Fatalf("err = %v, want ErrRunStateV1", err)
	}
	if !strings.Contains(err.Error(), "v1 JSON run state; this binary reads v2") {
		t.Errorf("error %q does not say why", err)
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Error("a v1 snapshot reads as a missing one: a resume would start fresh")
	}
}

// TestRunStateRejectsBitFlips flips one bit at every tenth byte. Outside the
// magic, the version and the count field (caught by their own checks first)
// only the CRC stands between the flip and a silently different θ.
func TestRunStateRejectsBitFlips(t *testing.T) {
	s := validRunState()
	s.Theta = make([]float64, 100)
	for i := range s.Theta {
		s.Theta[i] = float64(i) - 49.5
	}
	good := encodeRunState(s)
	countAt := runStateHeader - 4
	for off := 0; off < len(good); off += 10 {
		data := append([]byte(nil), good...)
		data[off] ^= 1 << (off / 10 % 8)
		_, err := writeLoad(t, data)
		var want error
		switch {
		case off < 4:
			want = ErrRunStateMagic
		case off == 4:
			want = ErrRunStateVersion
		case off >= countAt && off < runStateHeader:
			want = ErrRunStateLength
		default:
			want = ErrRunStateChecksum
		}
		if !errors.Is(err, want) {
			t.Errorf("bit flip at byte %d: err = %v, want %v", off, err, want)
		}
	}
}

func TestRunStateRejectsTruncation(t *testing.T) {
	s := validRunState()
	s.Theta = make([]float64, 64)
	good := encodeRunState(s)
	lengths := []int{runStateHeader + 8, runStateHeader + 8*32 + 3, len(good) - 8, len(good) - 1}
	for n := 0; n < runStateHeader; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		if _, err := writeLoad(t, good[:n]); !errors.Is(err, ErrRunStateLength) {
			t.Errorf("truncated to %d of %d bytes: err = %v, want ErrRunStateLength", n, len(good), err)
		}
	}
	if _, err := writeLoad(t, append(append([]byte(nil), good...), 0)); !errors.Is(err, ErrRunStateLength) {
		t.Errorf("one byte appended: err = %v, want ErrRunStateLength", err)
	}
}

// TestRunStateRejectsOverclaimedCount: a count field that claims more
// parameters than the file holds is refused on the length rule, before θ is
// allocated — even with a checksum that matches the forged bytes.
func TestRunStateRejectsOverclaimedCount(t *testing.T) {
	le := binary.LittleEndian
	good := encodeRunState(validRunState())
	for _, n := range []uint32{4, 1 << 20, math.MaxUint32} {
		data := append([]byte(nil), good...)
		le.PutUint32(data[runStateHeader-4:], n)
		body := len(data) - runStateCRC
		le.PutUint32(data[body:], crc32.Checksum(data[:body], castagnoli))
		if _, err := writeLoad(t, data); !errors.Is(err, ErrRunStateLength) {
			t.Errorf("count %d over a 3-param file: err = %v, want ErrRunStateLength", n, err)
		}
	}
}
