package data

import (
	"errors"
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func mkSamples(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{X: tensor.Vec{float64(i)}, Y: i % 3}
	}
	return out
}

func TestSplitNode(t *testing.T) {
	r := rng.New(1)
	nd, err := SplitNode(r, mkSamples(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nd.Train) != 4 || len(nd.Test) != 6 {
		t.Fatalf("split sizes = %d/%d, want 4/6", len(nd.Train), len(nd.Test))
	}
	if nd.Size() != 10 {
		t.Errorf("Size = %d", nd.Size())
	}
	// Train and Test must partition the original multiset.
	seen := map[float64]int{}
	for _, s := range nd.All() {
		seen[s.X[0]]++
	}
	if len(seen) != 10 {
		t.Errorf("split lost or duplicated samples: %d unique", len(seen))
	}
}

func TestSplitNodeErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := SplitNode(r, mkSamples(5), 5); !errors.Is(err, ErrNotEnoughSamples) {
		t.Errorf("K == n should fail with ErrNotEnoughSamples, got %v", err)
	}
	if _, err := SplitNode(r, mkSamples(5), 0); err == nil {
		t.Error("K == 0 should fail")
	}
	if _, err := SplitNode(r, mkSamples(5), -1); err == nil {
		t.Error("negative K should fail")
	}
}

func TestWeights(t *testing.T) {
	f := &Federation{
		Sources: []*NodeDataset{
			{Train: mkSamples(2), Test: mkSamples(2)},  // 4
			{Train: mkSamples(2), Test: mkSamples(10)}, // 12
		},
	}
	w := f.Weights()
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.75) > 1e-12 {
		t.Errorf("weights = %v, want [0.25 0.75]", w)
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestWeightsEmpty(t *testing.T) {
	f := &Federation{}
	if w := f.Weights(); len(w) != 0 {
		t.Errorf("empty federation weights = %v", w)
	}
}

func TestNodeStats(t *testing.T) {
	f := &Federation{
		Sources: []*NodeDataset{{Train: mkSamples(1), Test: mkSamples(1)}}, // 2
		Targets: []*NodeDataset{{Train: mkSamples(2), Test: mkSamples(2)}}, // 4
	}
	s := f.NodeStats()
	if s.Nodes != 2 || s.MeanPerNode != 3 || math.Abs(s.StdPerNode-1) > 1e-12 {
		t.Errorf("stats = %+v", s)
	}
	if st := (&Federation{}).NodeStats(); st.Nodes != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestResplit(t *testing.T) {
	r := rng.New(1)
	f := &Federation{
		Name: "t", Dim: 1, NumClasses: 3,
		Sources: []*NodeDataset{{Train: mkSamples(3), Test: mkSamples(7)}},
		Targets: []*NodeDataset{{Train: mkSamples(3), Test: mkSamples(5)}},
	}
	g, err := f.Resplit(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sources[0].Train) != 6 || len(g.Targets[0].Train) != 6 {
		t.Errorf("resplit train sizes = %d/%d", len(g.Sources[0].Train), len(g.Targets[0].Train))
	}
	if g.Sources[0].Size() != 10 || g.Targets[0].Size() != 8 {
		t.Errorf("resplit changed node sizes")
	}
	// Too-large K must error.
	if _, err := f.Resplit(r, 100); err == nil {
		t.Error("oversized K should fail")
	}
}

func TestPowerLawSizes(t *testing.T) {
	r := rng.New(5)
	sizes := PowerLawSizes(r, 5000, 17, 5, 3)
	var sum float64
	for _, s := range sizes {
		if s < 3 {
			t.Fatalf("size %d below min", s)
		}
		sum += float64(s)
	}
	mean := sum / float64(len(sizes))
	if math.Abs(mean-17) > 1.5 {
		t.Errorf("power-law mean = %v, want ~17", mean)
	}
	var ss float64
	for _, s := range sizes {
		d := float64(s) - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(sizes)))
	if std < 3 || std > 8 {
		t.Errorf("power-law std = %v, want ~5", std)
	}
	if PowerLawSizes(r, 0, 1, 1, 1) != nil {
		t.Error("zero-count sizes should be nil")
	}
}
