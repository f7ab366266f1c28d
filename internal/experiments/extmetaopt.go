package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/opt"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// Extension: ablate the META-UPDATE RULE. Algorithm 1 uses plain gradient
// descent for the outer step (Eq. 4); this experiment runs centralized
// meta-training (T0 = 1 dynamics) with SGD, momentum and Adam outer
// optimizers and compares objective trajectories at equal iteration budget.

// ExtMetaOptConfig parameterizes the ablation.
type ExtMetaOptConfig struct {
	Scale Scale
	Iters int
}

// DefaultExtMetaOptConfig returns the ablation configuration.
func DefaultExtMetaOptConfig(scale Scale) ExtMetaOptConfig {
	cfg := ExtMetaOptConfig{Scale: scale, Iters: 300}
	if scale == ScaleCI {
		cfg.Iters = 100
	}
	return cfg
}

// ExtMetaOptResult holds one objective trajectory per optimizer.
type ExtMetaOptResult struct {
	Curves []*eval.Series
	Finals []float64
}

// RunExtMetaOpt runs the ablation.
func RunExtMetaOpt(cfg ExtMetaOptConfig) (*ExtMetaOptResult, error) {
	// alpha is the inner rate, beta the SGD/momentum outer rate; Adam's
	// scale-free steps need a magnitude of their own, adamLR.
	const alpha, beta, adamLR, seed = 0.05, 0.01, 0.01, 10
	fed, m, err := workload{dataset: "synthetic", ab: 0.5}.build(cfg.Scale, seed)
	if err != nil {
		return nil, fmt.Errorf("ext-meta-opt: %w", err)
	}
	theta0 := m.InitParams(rng.New(seed))

	optimizers := []opt.Optimizer{
		&opt.SGD{LR: beta},
		&opt.Momentum{LR: beta, Gamma: 0.9},
		&opt.Adam{LR: adamLR},
	}

	// Each optimizer run is independent (stateful optimizers are per-cell);
	// run the three on the worker pool into index slots.
	curves := make([]*eval.Series, len(optimizers))
	err = par.ForEachErr(0, len(optimizers), func(c int) error {
		o := optimizers[c]
		series := &eval.Series{Name: o.Name()}
		_, err := meta.TrainCentralized(m, fed.Sources, fed.Weights(), theta0,
			alpha, o, cfg.Iters, meta.SecondOrder, 1,
			func(iter int, theta tensor.Vec) {
				if iter%10 == 0 || iter == cfg.Iters {
					series.Add(iter, eval.GlobalMetaObjectiveN(m, fed, alpha, theta, 1))
				}
			})
		if err != nil {
			return fmt.Errorf("ext-meta-opt %s: %w", o.Name(), err)
		}
		curves[c] = series
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &ExtMetaOptResult{Curves: curves}
	for _, s := range curves {
		last, _ := s.Last()
		res.Finals = append(res.Finals, last.Value)
	}
	return res, nil
}

// Render implements the printable experiment.
func (r *ExtMetaOptResult) Render() string {
	var b strings.Builder
	b.WriteString(renderSeriesTable(
		"Extension: outer-optimizer ablation (centralized meta-training)",
		"meta-objective G(θ_t)", r.Curves))
	b.WriteString("final objectives:")
	for i, s := range r.Curves {
		fmt.Fprintf(&b, "  %s: %.4f", s.Name, r.Finals[i])
	}
	b.WriteByte('\n')
	return b.String()
}
