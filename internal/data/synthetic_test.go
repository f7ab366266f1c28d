package data

import (
	"math"
	"testing"
)

func TestGenerateSyntheticShape(t *testing.T) {
	cfg := DefaultSyntheticConfig(0.5, 0.5)
	fed, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fed.Sources) + len(fed.Targets); got != 50 {
		t.Errorf("total nodes = %d, want 50", got)
	}
	if len(fed.Sources) != 40 {
		t.Errorf("sources = %d, want 40 (80%%)", len(fed.Sources))
	}
	if fed.Dim != 60 || fed.NumClasses != 10 {
		t.Errorf("shape = %d/%d, want 60/10", fed.Dim, fed.NumClasses)
	}
	for i, n := range fed.Sources {
		if len(n.Train) != cfg.K {
			t.Fatalf("node %d train size = %d, want %d", i, len(n.Train), cfg.K)
		}
		if len(n.Test) == 0 {
			t.Fatalf("node %d has empty test set", i)
		}
		for _, s := range n.Train {
			if len(s.X) != 60 {
				t.Fatalf("sample dim = %d", len(s.X))
			}
			if s.Y < 0 || s.Y >= 10 {
				t.Fatalf("label out of range: %d", s.Y)
			}
			if !s.X.IsFinite() {
				t.Fatal("non-finite feature")
			}
		}
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	cfg := DefaultSyntheticConfig(0.5, 0.5)
	a, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sources {
		for j := range a.Sources[i].Train {
			sa, sb := a.Sources[i].Train[j], b.Sources[i].Train[j]
			if sa.Y != sb.Y || sa.X.Dist(sb.X) != 0 {
				t.Fatalf("same seed produced different data at node %d sample %d", i, j)
			}
		}
	}
}

func TestGenerateSyntheticSeedChangesData(t *testing.T) {
	cfg := DefaultSyntheticConfig(0.5, 0.5)
	a, _ := GenerateSynthetic(cfg)
	cfg.Seed = 99
	b, _ := GenerateSynthetic(cfg)
	if a.Sources[0].Train[0].X.Dist(b.Sources[0].Train[0].X) == 0 {
		t.Error("different seeds produced identical data")
	}
}

func TestSyntheticHeterogeneityIncreasesWithAlphaBeta(t *testing.T) {
	// Larger (α̃, β̃) should increase dispersion of the per-node input means.
	spread := func(alpha, beta float64) float64 {
		cfg := DefaultSyntheticConfig(alpha, beta)
		cfg.Seed = 7
		fed, err := GenerateSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Mean input vector per node; measure variance of per-node means.
		var centers []float64
		for _, n := range fed.Sources {
			var m float64
			cnt := 0
			for _, s := range n.All() {
				m += s.X.Sum() / float64(len(s.X))
				cnt++
			}
			centers = append(centers, m/float64(cnt))
		}
		var mu float64
		for _, c := range centers {
			mu += c
		}
		mu /= float64(len(centers))
		var v float64
		for _, c := range centers {
			v += (c - mu) * (c - mu)
		}
		return v / float64(len(centers))
	}
	low := spread(0, 0)
	high := spread(1, 1)
	if high <= low {
		t.Errorf("heterogeneity did not increase: spread(0,0)=%v spread(1,1)=%v", low, high)
	}
}

func TestSyntheticLabelsNonDegenerate(t *testing.T) {
	fed, err := GenerateSynthetic(DefaultSyntheticConfig(0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, n := range fed.Sources {
		for _, s := range n.All() {
			counts[s.Y]++
		}
	}
	if len(counts) < 3 {
		t.Errorf("only %d distinct labels generated across federation", len(counts))
	}
}

func TestSyntheticNodeStatsMatchTable1(t *testing.T) {
	cfg := DefaultSyntheticConfig(0, 0)
	cfg.Nodes = 500 // larger draw to average out sampling noise
	fed, err := GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := fed.NodeStats()
	if math.Abs(s.MeanPerNode-17) > 3 {
		t.Errorf("mean samples per node = %v, Table I says 17", s.MeanPerNode)
	}
	if s.StdPerNode < 2 || s.StdPerNode > 9 {
		t.Errorf("std samples per node = %v, Table I says 5", s.StdPerNode)
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []func(*SyntheticConfig){
		func(c *SyntheticConfig) { c.Alpha = -1 },
		func(c *SyntheticConfig) { c.Nodes = 1 },
		func(c *SyntheticConfig) { c.Dim = 0 },
		func(c *SyntheticConfig) { c.Classes = 1 },
		func(c *SyntheticConfig) { c.K = 0 },
		func(c *SyntheticConfig) { c.MeanSamples = 0 },
		func(c *SyntheticConfig) { c.SourceFraction = 1 },
		func(c *SyntheticConfig) { c.SourceFraction = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultSyntheticConfig(0.5, 0.5)
		mutate(&cfg)
		if _, err := GenerateSynthetic(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
