package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// LoadCSV reads labelled samples from CSV: each record holds dim feature
// columns followed by one integer class label. It returns the samples and
// the number of classes (1 + the maximum label seen). This is the bridge
// for reproducing the experiments on real datasets (e.g. an MNIST CSV
// export) instead of the offline stand-ins.
func LoadCSV(r io.Reader, dim int) ([]Sample, int, error) {
	if dim <= 0 {
		return nil, 0, fmt.Errorf("data: feature dimension must be positive, got %d", dim)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = dim + 1
	var samples []Sample
	classes := 0
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("data: csv line %d: %w", line, err)
		}
		x := make(tensor.Vec, dim)
		for j := 0; j < dim; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("data: csv line %d column %d: %w", line, j+1, err)
			}
			x[j] = v
		}
		y, err := strconv.Atoi(rec[dim])
		if err != nil {
			return nil, 0, fmt.Errorf("data: csv line %d label: %w", line, err)
		}
		if y < 0 {
			return nil, 0, fmt.Errorf("data: csv line %d: negative label %d", line, y)
		}
		if y+1 > classes {
			classes = y + 1
		}
		samples = append(samples, Sample{X: x, Y: y})
	}
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("data: csv contains no samples")
	}
	if classes < 2 {
		return nil, 0, fmt.Errorf("data: csv contains only one class")
	}
	return samples, classes, nil
}

// LoadCSVFile opens path and delegates to LoadCSV.
func LoadCSVFile(path string, dim int) ([]Sample, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("data: open %s: %w", path, err)
	}
	defer f.Close()
	return LoadCSV(f, dim)
}

// PartitionConfig controls how a flat sample pool is distributed over a
// federation of edge nodes, reproducing the paper's non-IID setup on
// user-supplied data.
type PartitionConfig struct {
	// Nodes is the federation size.
	Nodes int
	// ClassesPerNode enables label skew: each node only sees this many
	// classes (the paper's MNIST setting uses 2). Zero means IID (all
	// classes everywhere).
	ClassesPerNode int
	// K is the few-shot training-split size per node.
	K int
	// SourceFraction is the fraction of meta-training nodes (paper: 0.8).
	SourceFraction float64
	// Seed drives the assignment.
	Seed uint64
}

// BuildFederation partitions samples over a federation according to cfg.
// Samples are drawn per node from its assigned classes' pools without
// replacement until a pool is exhausted, then that pool recycles (shuffled
// re-use keeps every node at its target size on small datasets; callers
// with abundant data never recycle).
func BuildFederation(name string, samples []Sample, classes int, cfg PartitionConfig) (*Federation, error) {
	switch {
	case len(samples) == 0:
		return nil, fmt.Errorf("data: no samples to partition")
	case classes < 2:
		return nil, fmt.Errorf("data: need >= 2 classes, got %d", classes)
	case cfg.Nodes < 2:
		return nil, fmt.Errorf("data: need >= 2 nodes, got %d", cfg.Nodes)
	case cfg.ClassesPerNode < 0 || cfg.ClassesPerNode > classes:
		return nil, fmt.Errorf("data: ClassesPerNode %d outside [0, %d]", cfg.ClassesPerNode, classes)
	case cfg.K <= 0:
		return nil, fmt.Errorf("data: K must be positive, got %d", cfg.K)
	case cfg.SourceFraction <= 0 || cfg.SourceFraction >= 1:
		return nil, fmt.Errorf("data: SourceFraction must be in (0,1), got %v", cfg.SourceFraction)
	}

	root := rng.New(cfg.Seed)

	// Class pools, shuffled once.
	pools := make([][]Sample, classes)
	for _, s := range samples {
		if s.Y < 0 || s.Y >= classes {
			return nil, fmt.Errorf("data: sample label %d outside %d classes", s.Y, classes)
		}
		pools[s.Y] = append(pools[s.Y], s)
	}
	poolRng := root.Split(0)
	cursors := make([]int, classes)
	for c := range pools {
		p := pools[c]
		poolRng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	drawFrom := func(c int) Sample {
		p := pools[c]
		if cursors[c] >= len(p) {
			poolRng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			cursors[c] = 0
		}
		s := p[cursors[c]]
		cursors[c]++
		return s
	}

	// Every node gets an even share of the pool.
	per := len(samples) / cfg.Nodes
	if per < cfg.K+2 {
		return nil, fmt.Errorf("data: %d samples over %d nodes leaves %d per node, need > K=%d", len(samples), cfg.Nodes, per, cfg.K)
	}

	numSources := int(cfg.SourceFraction*float64(cfg.Nodes) + 0.5)
	if numSources <= 0 || numSources >= cfg.Nodes {
		return nil, fmt.Errorf("data: SourceFraction %v leaves no sources or no targets", cfg.SourceFraction)
	}

	fed := &Federation{Name: name, Dim: len(samples[0].X), NumClasses: classes}
	for i := 0; i < cfg.Nodes; i++ {
		nodeRng := root.Split(uint64(i) + 2)
		// Classes this node sees. Only classes with data are eligible.
		eligible := make([]int, 0, classes)
		for c := range pools {
			if len(pools[c]) > 0 {
				eligible = append(eligible, c)
			}
		}
		if len(eligible) == 0 {
			return nil, fmt.Errorf("data: no non-empty class pools")
		}
		nodeClasses := eligible
		if n := cfg.ClassesPerNode; n > 0 && n < len(eligible) {
			perm := nodeRng.Perm(len(eligible))
			nodeClasses = make([]int, n)
			for j := 0; j < n; j++ {
				nodeClasses[j] = eligible[perm[j]]
			}
		}
		nodeSamples := make([]Sample, per)
		for s := range nodeSamples {
			nodeSamples[s] = drawFrom(nodeClasses[nodeRng.IntN(len(nodeClasses))])
		}
		nd, err := SplitNode(nodeRng, nodeSamples, cfg.K)
		if err != nil {
			return nil, fmt.Errorf("partition node %d: %w", i, err)
		}
		if i < numSources {
			fed.Sources = append(fed.Sources, nd)
		} else {
			fed.Targets = append(fed.Targets, nd)
		}
	}
	return fed, nil
}
