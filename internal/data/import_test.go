package data

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadCSV(t *testing.T) {
	csvData := "1.0,2.0,0\n3.5,-1.25,1\n0,0,2\n"
	samples, classes, err := LoadCSV(strings.NewReader(csvData), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || classes != 3 {
		t.Fatalf("got %d samples, %d classes", len(samples), classes)
	}
	if samples[1].X[0] != 3.5 || samples[1].X[1] != -1.25 || samples[1].Y != 1 {
		t.Errorf("sample 1 = %+v", samples[1])
	}
}

func TestLoadCSVRejections(t *testing.T) {
	cases := map[string]struct {
		csv string
		dim int
	}{
		"bad dim":        {"1,0\n", 0},
		"wrong columns":  {"1,2,3,0\n", 2},
		"bad feature":    {"x,2,0\n", 2},
		"bad label":      {"1,2,zero\n", 2},
		"negative label": {"1,2,-1\n", 2},
		"empty":          {"", 2},
		"one class":      {"1,2,0\n3,4,0\n", 2},
	}
	for name, tc := range cases {
		if _, _, err := LoadCSV(strings.NewReader(tc.csv), tc.dim); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(path, []byte("1,0\n2,1\n3,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	samples, classes, err := LoadCSVFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || classes != 2 {
		t.Errorf("got %d/%d", len(samples), classes)
	}
	if _, _, err := LoadCSVFile(filepath.Join(dir, "missing.csv"), 1); err == nil {
		t.Error("missing file accepted")
	}
}

// importPool builds a labelled pool with `n` samples per class.
func importPool(classes, n int) []Sample {
	var out []Sample
	for c := 0; c < classes; c++ {
		for i := 0; i < n; i++ {
			out = append(out, Sample{X: []float64{float64(c), float64(i)}, Y: c})
		}
	}
	return out
}

func TestBuildFederationIID(t *testing.T) {
	pool := importPool(4, 100)
	fed, err := BuildFederation("csv", pool, 4, PartitionConfig{
		Nodes: 10, K: 5, SourceFraction: 0.8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Sources) != 8 || len(fed.Targets) != 2 {
		t.Fatalf("split %d/%d", len(fed.Sources), len(fed.Targets))
	}
	if fed.Dim != 2 || fed.NumClasses != 4 {
		t.Errorf("shape %d/%d", fed.Dim, fed.NumClasses)
	}
	// Even split: 400/10 = 40 per node.
	for i, nd := range fed.Sources {
		if nd.Size() != 40 {
			t.Errorf("node %d size %d, want 40", i, nd.Size())
		}
		if len(nd.Train) != 5 {
			t.Errorf("node %d train %d", i, len(nd.Train))
		}
	}
}

func TestBuildFederationLabelSkew(t *testing.T) {
	pool := importPool(10, 50)
	fed, err := BuildFederation("csv", pool, 10, PartitionConfig{
		Nodes: 12, ClassesPerNode: 2, K: 5, SourceFraction: 0.75, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range append(append([]*NodeDataset{}, fed.Sources...), fed.Targets...) {
		labels := map[int]bool{}
		for _, s := range nd.All() {
			labels[s.Y] = true
		}
		if len(labels) > 2 {
			t.Errorf("node %d sees %d classes, want <= 2", i, len(labels))
		}
	}
}

func TestBuildFederationDeterministic(t *testing.T) {
	pool := importPool(3, 60)
	cfg := PartitionConfig{Nodes: 6, ClassesPerNode: 2, K: 4, SourceFraction: 0.5, Seed: 9}
	a, err := BuildFederation("x", pool, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFederation("x", pool, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodesA := append(append([]*NodeDataset{}, a.Sources...), a.Targets...)
	nodesB := append(append([]*NodeDataset{}, b.Sources...), b.Targets...)
	for i := range nodesA {
		sa, sb := nodesA[i].All(), nodesB[i].All()
		if len(sa) != len(sb) {
			t.Fatalf("node %d sizes differ: %d vs %d", i, len(sa), len(sb))
		}
		for j := range sa {
			if sa[j].Y != sb[j].Y || sa[j].X.Dist(sb[j].X) != 0 {
				t.Fatalf("node %d sample %d not bit-identical across same-seed partitions", i, j)
			}
		}
	}
}

func TestBuildFederationRecyclesSmallPools(t *testing.T) {
	// Class 1 has 2 samples but IID nodes draw about half of their 8 from
	// it: its pool must recycle rather than fail.
	pool := append(importPool(1, 30), Sample{X: []float64{1, 0}, Y: 1}, Sample{X: []float64{1, 1}, Y: 1})
	fed, err := BuildFederation("small", pool, 2, PartitionConfig{
		Nodes: 4, K: 3, SourceFraction: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	total, class1 := 0, 0
	for _, nd := range append(append([]*NodeDataset{}, fed.Sources...), fed.Targets...) {
		total += nd.Size()
		for _, s := range nd.All() {
			if s.Y == 1 {
				class1++
			}
		}
	}
	if total != len(pool) || class1 <= 2 {
		t.Errorf("recycling failed: %d samples distributed, %d from the 2-sample class", total, class1)
	}
}

func TestBuildFederationRejections(t *testing.T) {
	pool := importPool(3, 20)
	cases := map[string]PartitionConfig{
		"few nodes":    {Nodes: 1, K: 3, SourceFraction: 0.5},
		"bad K":        {Nodes: 4, K: 0, SourceFraction: 0.5},
		"bad fraction": {Nodes: 4, K: 3, SourceFraction: 1},
		"bad skew":     {Nodes: 4, K: 3, ClassesPerNode: 7, SourceFraction: 0.5},
	}
	for name, cfg := range cases {
		if _, err := BuildFederation("x", pool, 3, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := BuildFederation("x", nil, 3, PartitionConfig{Nodes: 4, K: 3, SourceFraction: 0.5}); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := BuildFederation("x", pool, 1, PartitionConfig{Nodes: 4, K: 3, SourceFraction: 0.5}); err == nil {
		t.Error("one class accepted")
	}
	// Even split with too little data.
	if _, err := BuildFederation("x", importPool(2, 4), 2, PartitionConfig{Nodes: 4, K: 3, SourceFraction: 0.5}); err == nil {
		t.Error("insufficient even split accepted")
	}
	// Out-of-range label.
	bad := importPool(3, 10)
	bad[0].Y = 9
	if _, err := BuildFederation("x", bad, 3, PartitionConfig{Nodes: 4, K: 2, SourceFraction: 0.5}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestBuildFederationEndToEndCSV(t *testing.T) {
	// Full pipeline: CSV -> federation -> samples usable for training.
	var b strings.Builder
	for c := 0; c < 3; c++ {
		for i := 0; i < 30; i++ {
			fmt.Fprintf(&b, "%d.5,%d,%d\n", c, i, c)
		}
	}
	samples, classes, err := LoadCSV(strings.NewReader(b.String()), 2)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := BuildFederation("csv", samples, classes, PartitionConfig{
		Nodes: 6, ClassesPerNode: 2, K: 4, SourceFraction: 0.5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := fed.NodeStats(); s.Nodes != 6 || s.MeanPerNode <= 0 {
		t.Errorf("stats %+v", s)
	}
}
