package eval

import (
	"fmt"
	"math"
	"sort"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// BootstrapResult summarizes a paired-bootstrap comparison.
type BootstrapResult struct {
	// MeanDiff is the observed mean of a[i] − b[i].
	MeanDiff float64
	// Lo, Hi bound the percentile confidence interval of the mean
	// difference.
	Lo, Hi float64
	// Significant reports whether the interval excludes zero.
	Significant bool
}

// PairedBootstrapN estimates a percentile confidence interval for the mean
// difference between two paired per-target metric vectors (e.g. the adapted
// accuracies of two algorithms on the same target nodes) by resampling
// target indices with replacement, on `workers` workers (0 = all cores).
// Each resample draws from its own RNG stream split off r by resample
// index, so the resampled means — and hence the interval — are bit-identical
// for every worker count. r itself is never advanced.
func PairedBootstrapN(r *rng.Rand, a, b []float64, resamples int, confidence float64, workers int) (BootstrapResult, error) {
	switch {
	case len(a) == 0 || len(a) != len(b):
		return BootstrapResult{}, fmt.Errorf("eval: paired bootstrap needs equal non-empty vectors, got %d and %d", len(a), len(b))
	case resamples < 10:
		return BootstrapResult{}, fmt.Errorf("eval: need at least 10 resamples, got %d", resamples)
	case confidence <= 0 || confidence >= 1:
		return BootstrapResult{}, fmt.Errorf("eval: confidence must be in (0,1), got %v", confidence)
	case r == nil:
		return BootstrapResult{}, fmt.Errorf("eval: nil rng")
	}

	n := len(a)
	diffs := make([]float64, n)
	var mean float64
	for i := range a {
		diffs[i] = a[i] - b[i]
		mean += diffs[i] / float64(n)
	}

	means := make([]float64, resamples)
	par.ForEach(workers, resamples, func(k int) {
		// Split reads r without advancing it, so concurrent splits are
		// safe and the stream for resample k is worker-independent.
		rk := r.Split(uint64(k))
		var m float64
		for j := 0; j < n; j++ {
			m += diffs[rk.IntN(n)]
		}
		means[k] = m / float64(n)
	})
	sort.Float64s(means)
	tail := (1 - confidence) / 2
	lo := means[quantileIndex(tail, resamples)]
	hi := means[quantileIndex(1-tail, resamples)]

	return BootstrapResult{
		MeanDiff:    mean,
		Lo:          lo,
		Hi:          hi,
		Significant: lo > 0 || hi < 0,
	}, nil
}

// quantileIndex returns the 0-based index of the q-th order statistic of n
// sorted samples: the smallest index i such that i+1 ≥ q·n, i.e.
// ceil(q·n) − 1, clamped to [0, n−1]. Truncating q·n instead (the previous
// implementation) selected one slot too high whenever q·n was integral —
// at 95% confidence with 2000 resamples the upper bound read means[1950]
// rather than the 97.5th-percentile order statistic means[1949].
func quantileIndex(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// FinalAccuraciesN returns each target node's test accuracy after `steps`
// fast-adaptation gradient steps — the per-target vector the paired
// bootstrap compares across algorithms — on `workers` workers; per-target
// slots make it bit-identical for every worker count.
func FinalAccuraciesN(m nn.Model, theta tensor.Vec, targets []*data.NodeDataset, alpha float64, steps, workers int) []float64 {
	out := make([]float64, len(targets))
	par.ForEach(workers, len(targets), func(i int) {
		curve := AdaptationCurve(m, theta, targets[i], alpha, steps)
		out[i] = curve[len(curve)-1].Accuracy
	})
	return out
}

// CompareAlgorithmsN runs the paired bootstrap on the final adapted
// accuracies of two initializations over the same target nodes, on
// `workers` workers.
func CompareAlgorithmsN(r *rng.Rand, m nn.Model, thetaA, thetaB tensor.Vec, targets []*data.NodeDataset, alpha float64, steps, resamples int, confidence float64, workers int) (BootstrapResult, error) {
	if len(targets) == 0 {
		return BootstrapResult{}, fmt.Errorf("eval: no target nodes to compare on")
	}
	a := FinalAccuraciesN(m, thetaA, targets, alpha, steps, workers)
	b := FinalAccuraciesN(m, thetaB, targets, alpha, steps, workers)
	return PairedBootstrapN(r, a, b, resamples, confidence, workers)
}
