// Package eval provides the measurement side of the reproduction: the global
// meta-learning objective G(θ) tracked by the convergence experiments, and
// the fast-adaptation curves (loss/accuracy at the target nodes as a
// function of adaptation gradient steps) reported in Figures 3 and 4.
package eval

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/dro"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/tensor"
)

// The measurement loops in this package fan out over nodes/targets on the
// shared par pool. Every parallel function follows the par contract
// (per-index result slots, one workspace per worker, index-ordered
// reduction on the calling goroutine), so results are bit-identical for
// every worker count — the `...N` variants take an explicit worker count
// (0 = GOMAXPROCS, 1 = serial) and the suffix-free wrappers use 0.

// GlobalMetaObjective evaluates G(θ) = Σ_i ω_i L(φ_i(θ), D_i^test) over the
// federation's source nodes — the quantity whose convergence Theorem 2
// bounds — using all cores.
func GlobalMetaObjective(m nn.Model, fed *data.Federation, alpha float64, theta tensor.Vec) float64 {
	return GlobalMetaObjectiveN(m, fed, alpha, theta, 0)
}

// GlobalMetaObjectiveN is GlobalMetaObjective on `workers` workers. The
// per-node terms land in index slots and are summed in index order, so the
// value is bit-identical for every worker count.
func GlobalMetaObjectiveN(m nn.Model, fed *data.Federation, alpha float64, theta tensor.Vec, workers int) float64 {
	weights := fed.Weights()
	n := len(fed.Sources)
	// One workspace serves every node a worker processes.
	wss := make([]*meta.Workspace, par.Span(workers, n))
	terms := make([]float64, n)
	par.ForEachWorker(workers, n, func(w, i int) {
		if wss[w] == nil {
			wss[w] = meta.NewWorkspace(m)
		}
		nd := fed.Sources[i]
		terms[i] = weights[i] * wss[w].Objective(theta, nd.Train, nd.Test, alpha)
	})
	var total float64
	for _, term := range terms {
		total += term
	}
	return total
}

// Point is one tracked measurement.
type Point struct {
	// Iter is the global iteration count at measurement time.
	Iter int
	// Value is the measured quantity (loss, accuracy, ...).
	Value float64
}

// Series is a named sequence of measurements, ordered by insertion.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a measurement.
func (s *Series) Add(iter int, value float64) {
	s.Points = append(s.Points, Point{Iter: iter, Value: value})
}

// Last returns the most recent point; ok is false if the series is empty.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// TSV renders the series as two tab-separated columns, one point per line.
func (s *Series) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%d\t%.6g\n", p.Iter, p.Value)
	}
	return b.String()
}

// AdaptPoint is the target-node performance after a number of fast-
// adaptation gradient steps.
type AdaptPoint struct {
	Step     int
	Loss     float64
	Accuracy float64
}

// AdaptationCurve adapts theta on the node's K-sample training set for up to
// maxSteps gradient steps at rate alpha, recording the test-set loss and
// accuracy after every step. Entry 0 is the un-adapted model.
func AdaptationCurve(m nn.Model, theta tensor.Vec, node *data.NodeDataset, alpha float64, maxSteps int) []AdaptPoint {
	curve := make([]AdaptPoint, 0, maxSteps+1)
	// One workspace serves the whole curve: each adaptation step is the
	// fused gradient+step kernel and each loss evaluation reuses the same
	// scratch, instead of allocating per step. Numbers are unchanged — the
	// buffered kernels are bit-identical to the allocating ones.
	ws := m.NewWorkspace()
	phi := theta.Clone()
	for step := 0; step <= maxSteps; step++ {
		if step > 0 {
			m.GradStepInto(ws, phi, node.Train, alpha, phi)
		}
		curve = append(curve, AdaptPoint{
			Step:     step,
			Loss:     m.LossWith(ws, phi, node.Test),
			Accuracy: nn.Accuracy(m, phi, node.Test),
		})
	}
	return curve
}

// AverageAdaptationCurve averages AdaptationCurve over all target nodes —
// the quantity plotted in Figures 3(c)–3(e) — using all cores.
func AverageAdaptationCurve(m nn.Model, theta tensor.Vec, targets []*data.NodeDataset, alpha float64, maxSteps int) []AdaptPoint {
	return AverageAdaptationCurveN(m, theta, targets, alpha, maxSteps, 0)
}

// AverageAdaptationCurveN is AverageAdaptationCurve on `workers` workers.
// Per-target curves are computed into index slots and averaged in index
// order, so the curve is bit-identical for every worker count.
func AverageAdaptationCurveN(m nn.Model, theta tensor.Vec, targets []*data.NodeDataset, alpha float64, maxSteps, workers int) []AdaptPoint {
	if len(targets) == 0 {
		return nil
	}
	curves := make([][]AdaptPoint, len(targets))
	par.ForEach(workers, len(targets), func(t int) {
		curves[t] = AdaptationCurve(m, theta, targets[t], alpha, maxSteps)
	})
	return averageCurves(curves, maxSteps)
}

// averageCurves reduces per-target curves in index order.
func averageCurves(curves [][]AdaptPoint, maxSteps int) []AdaptPoint {
	avg := make([]AdaptPoint, maxSteps+1)
	for _, curve := range curves {
		for i, p := range curve {
			avg[i].Step = p.Step
			avg[i].Loss += p.Loss
			avg[i].Accuracy += p.Accuracy
		}
	}
	inv := 1 / float64(len(curves))
	for i := range avg {
		avg[i].Loss *= inv
		avg[i].Accuracy *= inv
	}
	return avg
}

// AdversarialAdaptationCurve adapts on the node's CLEAN training data and,
// after every step, evaluates on an FGSM-attacked copy of the node's test
// set (attack budget xi, white-box against the currently adapted
// parameters) — the Figure 4 protocol. Entry 0 is the un-adapted model.
func AdversarialAdaptationCurve(m nn.Model, theta tensor.Vec, node *data.NodeDataset, alpha float64, maxSteps int, xi, clampMin, clampMax float64) ([]AdaptPoint, error) {
	curve := make([]AdaptPoint, 0, maxSteps+1)
	ws := m.NewWorkspace()
	phi := theta.Clone()
	for step := 0; step <= maxSteps; step++ {
		if step > 0 {
			m.GradStepInto(ws, phi, node.Train, alpha, phi)
		}
		advTest, err := dro.FGSMBatch(m, phi, node.Test, xi, clampMin, clampMax)
		if err != nil {
			return nil, fmt.Errorf("eval: FGSM at step %d: %w", step, err)
		}
		curve = append(curve, AdaptPoint{
			Step:     step,
			Loss:     m.LossWith(ws, phi, advTest),
			Accuracy: nn.Accuracy(m, phi, advTest),
		})
	}
	return curve, nil
}

// AverageAdversarialAdaptationCurveN averages AdversarialAdaptationCurve
// over the target nodes on `workers` workers (0 = GOMAXPROCS), bit-identical
// for every worker count. On failure the reported error is the one of the
// lowest-indexed failing target, matching the sequential loop.
func AverageAdversarialAdaptationCurveN(m nn.Model, theta tensor.Vec, targets []*data.NodeDataset, alpha float64, maxSteps int, xi, clampMin, clampMax float64, workers int) ([]AdaptPoint, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	curves := make([][]AdaptPoint, len(targets))
	err := par.ForEachErr(workers, len(targets), func(t int) error {
		curve, err := AdversarialAdaptationCurve(m, theta, targets[t], alpha, maxSteps, xi, clampMin, clampMax)
		if err != nil {
			return fmt.Errorf("eval: target %d: %w", t, err)
		}
		curves[t] = curve
		return nil
	})
	if err != nil {
		return nil, err
	}
	return averageCurves(curves, maxSteps), nil
}
