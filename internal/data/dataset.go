// Package data implements the dataset substrate for the paper's three
// workloads: the FedProx-style Synthetic(α̃, β̃) generator, an MNIST-like
// procedural digit workload, and a Sent140-like character-sequence sentiment
// workload (see DESIGN.md §3 for the documented substitutions).
//
// A Federation is a set of per-node task datasets. Following §III-A of the
// paper, each node's local dataset D_i is split into a training part
// D_i^train of size K (used for the MAML inner step and for fast adaptation)
// and a testing part D_i^test (used for the meta-update and for evaluation).
package data

import (
	"errors"
	"fmt"
	"math"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// Sample is one labelled example: a feature vector and a class label.
type Sample struct {
	X tensor.Vec
	Y int
}

// NodeDataset is the local dataset of one edge node, already split into the
// K-sample training part and the testing part.
type NodeDataset struct {
	// Train is D_i^train, |Train| == K.
	Train []Sample
	// Test is D_i^test, disjoint from Train.
	Test []Sample
}

// Size returns |D_i| = |Train| + |Test|.
func (n *NodeDataset) Size() int { return len(n.Train) + len(n.Test) }

// All returns the concatenation of Train and Test as a fresh slice.
func (n *NodeDataset) All() []Sample {
	out := make([]Sample, 0, n.Size())
	out = append(out, n.Train...)
	out = append(out, n.Test...)
	return out
}

// Federation is a collection of per-node task datasets drawn from related
// distributions, partitioned into source nodes (which run federated
// meta-training) and target nodes (held out for fast-adaptation evaluation).
type Federation struct {
	// Name identifies the workload (e.g. "Synthetic(0.5,0.5)").
	Name string
	// Dim is the feature dimension; NumClasses the number of labels.
	Dim, NumClasses int
	// Sources are the meta-training nodes (the set S in the paper).
	Sources []*NodeDataset
	// Targets are the held-out nodes used to evaluate fast adaptation.
	Targets []*NodeDataset
}

// Weights returns the aggregation weights ω_i = |D_i| / Σ_j |D_j| over the
// source nodes (Eq. 2 in the paper).
func (f *Federation) Weights() []float64 {
	total := 0
	for _, n := range f.Sources {
		total += n.Size()
	}
	w := make([]float64, len(f.Sources))
	if total == 0 {
		return w
	}
	for i, n := range f.Sources {
		w[i] = float64(n.Size()) / float64(total)
	}
	return w
}

// Stats summarizes per-node sample counts, as reported in Table I.
type Stats struct {
	Nodes       int
	MeanPerNode float64
	StdPerNode  float64
}

// NodeStats computes Table-I-style statistics over all nodes (sources and
// targets combined, matching how the paper reports dataset statistics).
func (f *Federation) NodeStats() Stats {
	sizes := make([]float64, 0, len(f.Sources)+len(f.Targets))
	for _, n := range f.Sources {
		sizes = append(sizes, float64(n.Size()))
	}
	for _, n := range f.Targets {
		sizes = append(sizes, float64(n.Size()))
	}
	s := Stats{Nodes: len(sizes)}
	if s.Nodes == 0 {
		return s
	}
	var sum float64
	for _, v := range sizes {
		sum += v
	}
	s.MeanPerNode = sum / float64(s.Nodes)
	var ss float64
	for _, v := range sizes {
		d := v - s.MeanPerNode
		ss += d * d
	}
	s.StdPerNode = math.Sqrt(ss / float64(s.Nodes))
	return s
}

// ErrNotEnoughSamples is returned when a node has too few samples to carve
// out a K-sample training set while leaving a non-empty test set.
var ErrNotEnoughSamples = errors.New("data: node has too few samples for the requested K")

// SplitNode shuffles samples and splits them into a K-sample training set
// and the remaining test set, as required by §III-A (|D_i^train| = K,
// |D_i| > K).
func SplitNode(r *rng.Rand, samples []Sample, k int) (*NodeDataset, error) {
	if k <= 0 {
		return nil, fmt.Errorf("data: K must be positive, got %d", k)
	}
	if len(samples) <= k {
		return nil, fmt.Errorf("%w: have %d, need > %d", ErrNotEnoughSamples, len(samples), k)
	}
	shuffled := make([]Sample, len(samples))
	copy(shuffled, samples)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return &NodeDataset{Train: shuffled[:k], Test: shuffled[k:]}, nil
}

// Resplit returns a copy of the federation with every node re-split to a new
// training-set size K. It is used by the adaptation experiments, which vary
// K at the target while keeping the underlying node data fixed.
func (f *Federation) Resplit(r *rng.Rand, k int) (*Federation, error) {
	out := &Federation{Name: f.Name, Dim: f.Dim, NumClasses: f.NumClasses}
	out.Sources = make([]*NodeDataset, 0, len(f.Sources))
	out.Targets = make([]*NodeDataset, 0, len(f.Targets))
	for _, n := range f.Sources {
		nd, err := SplitNode(r, n.All(), k)
		if err != nil {
			return nil, fmt.Errorf("resplit source node: %w", err)
		}
		out.Sources = append(out.Sources, nd)
	}
	for _, n := range f.Targets {
		nd, err := SplitNode(r, n.All(), k)
		if err != nil {
			return nil, fmt.Errorf("resplit target node: %w", err)
		}
		out.Targets = append(out.Targets, nd)
	}
	return out, nil
}
