package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/opt"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// estimateGStar approximates the optimal meta-objective value G(θ*) by
// centralized full-batch meta-gradient descent (equivalent to T0 = 1 with
// exact aggregation every step), run well past the federated budget. The
// convergence-error curves plot G(θᵗ) − G(θ*).
//
// When the reference run fails, the returned value falls back to the
// initialization objective — curves can still be shifted and rendered — but
// the failure is reported through the error so callers surface the degraded
// baseline instead of silently plotting against it. Earlier revisions
// swallowed the error here, which made a diverged reference run
// indistinguishable from a converged one.
func estimateGStar(m nn.Model, fed *data.Federation, alpha, beta float64, iters, workers int) (float64, error) {
	// A larger centralized step is stable here (no local drift) and reaches
	// the optimum far faster than the federated runs being measured.
	if beta < 0.05 {
		beta = 0.05
	}
	theta, err := meta.TrainCentralized(m, fed.Sources, fed.Weights(),
		m.InitParams(rng.New(99)), alpha, &opt.SGD{LR: beta}, iters, meta.SecondOrder, workers, nil)
	if err != nil {
		return eval.GlobalMetaObjectiveN(m, fed, alpha, m.InitParams(rng.New(99)), workers),
			fmt.Errorf("experiments: G* reference run failed, falling back to initialization objective: %w", err)
	}
	return eval.GlobalMetaObjectiveN(m, fed, alpha, theta, workers), nil
}

// renderWarnings appends any accumulated experiment warnings to a rendered
// figure so degraded baselines are visible in the output.
func renderWarnings(b *strings.Builder, warnings []string) {
	for _, w := range warnings {
		fmt.Fprintf(b, "WARNING: %s\n", w)
	}
}

// Fig2aConfig parameterizes the node-similarity convergence experiment.
type Fig2aConfig struct {
	Scale Scale
	// Similarities lists the (α̃, β̃) levels; nil means the paper's
	// {(0,0), (0.5,0.5), (1,1)}.
	Similarities []float64
	// Alpha, Beta are the learning rates (paper: 0.01 both).
	Alpha, Beta float64
	// T, T0 are the iteration budget and local steps (paper: T0 = 10).
	T, T0 int
	Seed  uint64
}

// DefaultFig2aConfig returns the paper configuration at the given scale.
func DefaultFig2aConfig(scale Scale) Fig2aConfig {
	cfg := Fig2aConfig{
		Scale:        scale,
		Similarities: []float64{0, 0.5, 1},
		Alpha:        0.01,
		Beta:         0.01,
		T:            500,
		T0:           10,
		Seed:         1,
	}
	if scale == ScaleCI {
		// The similarity ordering only emerges once the transient has
		// decayed, so CI keeps the paper's T and shrinks the node count
		// (done by syntheticFederation) instead.
		cfg.T = 500
	}
	return cfg
}

// Fig2aResult holds one convergence-error series per similarity level.
type Fig2aResult struct {
	Curves []*eval.Series
	// FinalErrors maps each curve to its final convergence error; the
	// paper's claim is that these increase with (α̃, β̃).
	FinalErrors []float64
	// Warnings records per-cell degradations (e.g. a failed G* reference
	// run), in cell order.
	Warnings []string
}

// fig2Cell is one grid cell's output slot.
type fig2Cell struct {
	series  *eval.Series
	final   float64
	warning string
}

// RunFig2a reproduces Figure 2(a): the impact of node similarity on FedML
// convergence at T0 = 10. The similarity levels are independent cells and
// run on the worker pool; every cell owns its federation, model, and series,
// and the result is assembled in cell order, so the output is bit-identical
// for every worker count.
func RunFig2a(cfg Fig2aConfig) (*Fig2aResult, error) {
	cells := make([]fig2Cell, len(cfg.Similarities))
	err := par.ForEachErr(0, len(cfg.Similarities), func(c int) error {
		ab := cfg.Similarities[c]
		fed, err := syntheticFederation(ab, ab, cfg.Scale, 5, cfg.Seed)
		if err != nil {
			return fmt.Errorf("fig2a Synthetic(%g,%g): %w", ab, ab, err)
		}
		m := softmaxModel(fed)
		// Inner loops stay serial: the cell grid is the coarser, better-
		// balanced grain, and nesting pools would oversubscribe.
		gStar, gErr := estimateGStar(m, fed, cfg.Alpha, cfg.Beta, 4*cfg.T, 1)
		if gErr != nil {
			cells[c].warning = fmt.Sprintf("Synthetic(%g,%g): %v", ab, ab, gErr)
		}

		series := &eval.Series{Name: fmt.Sprintf("Synthetic(%g,%g)", ab, ab)}
		trainCfg := core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
			OnRound: func(_, iter int, theta tensor.Vec) {
				series.Add(iter, eval.GlobalMetaObjectiveN(m, fed, cfg.Alpha, theta, 1)-gStar)
			},
		}
		if _, err := core.Train(m, fed, nil, trainCfg); err != nil {
			return fmt.Errorf("fig2a train Synthetic(%g,%g): %w", ab, ab, err)
		}
		cells[c].series = series
		last, _ := series.Last()
		cells[c].final = last.Value
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig2aResult{}
	for _, cell := range cells {
		res.Curves = append(res.Curves, cell.series)
		res.FinalErrors = append(res.FinalErrors, cell.final)
		if cell.warning != "" {
			res.Warnings = append(res.Warnings, cell.warning)
		}
	}
	return res, nil
}

// Render implements the printable figure.
func (r *Fig2aResult) Render() string {
	var b strings.Builder
	b.WriteString(renderSeriesTable(
		"Figure 2(a): Impact of node similarity on FedML convergence (T0=10)",
		"convergence error G(θ_t) − G(θ*)", r.Curves))
	renderWarnings(&b, r.Warnings)
	return b.String()
}

// Fig2bConfig parameterizes the local-update-count experiment.
type Fig2bConfig struct {
	Scale Scale
	// AlphaBeta is the Synthetic similarity level (paper: 0.5).
	AlphaBeta float64
	// T0s lists the local-update counts to compare.
	T0s []int
	// Alpha, Beta are the learning rates.
	Alpha, Beta float64
	// T is the fixed total iteration budget (paper: 500).
	T    int
	Seed uint64
}

// DefaultFig2bConfig returns the paper configuration at the given scale.
func DefaultFig2bConfig(scale Scale) Fig2bConfig {
	cfg := Fig2bConfig{
		Scale:     scale,
		AlphaBeta: 0.5,
		T0s:       []int{1, 5, 10, 20},
		Alpha:     0.01,
		Beta:      0.01,
		T:         500,
		Seed:      1,
	}
	if scale == ScaleCI {
		cfg.T = 100
	}
	return cfg
}

// Fig2bResult holds one convergence-error series per T0.
type Fig2bResult struct {
	Curves      []*eval.Series
	FinalErrors []float64
	// Warnings records degradations such as a failed G* reference run.
	Warnings []string
}

// RunFig2b reproduces Figure 2(b): the impact of the number of local update
// steps T0 on convergence at fixed T. The T0 cells share one federation and
// G* estimate (both computed up front, read-only during the fan-out) and run
// on the worker pool with per-cell result slots.
func RunFig2b(cfg Fig2bConfig) (*Fig2bResult, error) {
	fed, err := syntheticFederation(cfg.AlphaBeta, cfg.AlphaBeta, cfg.Scale, 5, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig2b data: %w", err)
	}
	m := softmaxModel(fed)
	res := &Fig2bResult{}
	gStar, gErr := estimateGStar(m, fed, cfg.Alpha, cfg.Beta, 4*cfg.T, 0)
	if gErr != nil {
		res.Warnings = append(res.Warnings, gErr.Error())
	}
	for _, t0 := range cfg.T0s {
		if cfg.T%t0 != 0 {
			return nil, fmt.Errorf("fig2b: T=%d not a multiple of T0=%d", cfg.T, t0)
		}
	}

	cells := make([]fig2Cell, len(cfg.T0s))
	err = par.ForEachErr(0, len(cfg.T0s), func(c int) error {
		t0 := cfg.T0s[c]
		series := &eval.Series{Name: fmt.Sprintf("T0=%d", t0)}
		trainCfg := core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: t0, Seed: cfg.Seed,
			OnRound: func(_, iter int, theta tensor.Vec) {
				series.Add(iter, eval.GlobalMetaObjectiveN(m, fed, cfg.Alpha, theta, 1)-gStar)
			},
		}
		if _, err := core.Train(m, fed, nil, trainCfg); err != nil {
			return fmt.Errorf("fig2b train T0=%d: %w", t0, err)
		}
		cells[c].series = series
		last, _ := series.Last()
		cells[c].final = last.Value
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, cell := range cells {
		res.Curves = append(res.Curves, cell.series)
		res.FinalErrors = append(res.FinalErrors, cell.final)
	}
	return res, nil
}

// Render implements the printable figure. The curves have different
// aggregation grids (one point per round, and rounds = T/T0), so each series
// is printed as its own iteration/value block.
func (r *Fig2bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2(b): Impact of T0 on FedML convergence, Synthetic(0.5,0.5), fixed T\n")
	for _, s := range r.Curves {
		b.WriteString(s.TSV())
	}
	b.WriteString("final convergence errors by T0:")
	for i, s := range r.Curves {
		fmt.Fprintf(&b, "  %s: %.6g", s.Name, r.FinalErrors[i])
	}
	b.WriteString("\n(convergence error G(θ_T) − G(θ*))\n")
	renderWarnings(&b, r.Warnings)
	return b.String()
}
