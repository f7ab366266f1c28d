package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
)

// FuzzRead ensures arbitrary input never panics the checkpoint parser and
// that every accepted checkpoint re-validates and round-trips.
func FuzzRead(f *testing.F) {
	// Seed with a valid checkpoint and a few near-misses.
	m := &nn.SoftmaxRegression{In: 3, Classes: 2}
	c, err := FromModel(m, m.InitParams(rng.New(1)), 0.05, "seed")
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"version":1}`)
	f.Add(`{"version":1,"model_kind":"softmax-regression","softmax_in":2,"softmax_classes":2,"alpha":0.1,"params":[0,0,0,0,0,0]}`)
	f.Add(`not json at all`)
	f.Add(`{"version":1,"model_kind":"mlp","mlp_dims":[2,-3,2],"alpha":0.1,"params":[]}`)

	f.Fuzz(func(t *testing.T, input string) {
		ck, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Anything accepted must be internally consistent.
		if err := ck.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid checkpoint: %v", err)
		}
		model, err := ck.Model()
		if err != nil {
			t.Fatalf("accepted checkpoint has no model: %v", err)
		}
		if model.NumParams() != len(ck.Params) {
			t.Fatal("accepted checkpoint param-count mismatch")
		}
		// Round trip.
		var out bytes.Buffer
		if err := Write(&out, ck); err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if again.ModelKind != ck.ModelKind || len(again.Params) != len(ck.Params) {
			t.Fatal("round trip changed the checkpoint")
		}
	})
}

// FuzzLoadRunState feeds arbitrary bytes to the snapshot decoder LoadRunState
// runs on a file's contents. It checks that no input panics, that decoding
// allocates no more than the input's size (plus a constant for the state
// header and an error message), and that every accepted snapshot saves back
// to exactly the input bytes.
func FuzzLoadRunState(f *testing.F) {
	s := validRunState()
	f.Add(encodeRunState(s))
	s.Theta = []float64{-0.0, 5e-324, 1.7976931348623157e308}
	s.Totals = everyCounterSet()
	f.Add(encodeRunState(s))
	f.Add(encodeRunState(s)[:runStateHeader])
	f.Add([]byte(v1RunStateFixture))
	f.Add([]byte(runStateMagic + "\x02"))
	f.Add([]byte{})

	const slack = 1024
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is process-wide, and the fuzzing engine allocates on
		// its own goroutines now and then, so an over-bound reading is
		// retried: decoding is deterministic, only the noise varies.
		var (
			st            *RunState
			err           error
			grew          uint64
			before, after runtime.MemStats
		)
		for try := 0; try < 5; try++ {
			runtime.ReadMemStats(&before)
			st, err = decodeRunState(data)
			runtime.ReadMemStats(&after)
			if grew = after.TotalAlloc - before.TotalAlloc; grew <= uint64(len(data))+slack {
				break
			}
		}
		if grew > uint64(len(data))+slack {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil || st.Validate() != nil {
			return // rejected input is fine; panics are not
		}
		path := filepath.Join(t.TempDir(), "run.state")
		if err := SaveRunState(path, st); err != nil {
			t.Fatalf("accepted run state failed to save: %v", err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted run state re-saved to different bytes:\n in  %x\n out %x", data, again)
		}
	})
}
