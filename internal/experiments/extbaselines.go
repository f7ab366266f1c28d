package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
)

// Extension: a four-way baseline comparison. Besides the paper's
// FedML-vs-FedAvg pairing, this runs FedProx (the heterogeneity-robust
// federated baseline the paper cites for its generator) and federated
// Reptile (the first-order meta-learning baseline from the related-work
// section), all evaluated with the same fast-adaptation protocol.

// ExtBaselinesConfig parameterizes the comparison.
type ExtBaselinesConfig struct {
	Scale       Scale
	Alpha, Beta float64
	T, T0       int
	// ProxMu is FedProx's proximal coefficient.
	ProxMu float64
	// ReptileEps is Reptile's interpolation step.
	ReptileEps float64
	AdaptSteps int
	Seed       uint64
}

// DefaultExtBaselinesConfig returns the comparison configuration.
func DefaultExtBaselinesConfig(scale Scale) ExtBaselinesConfig {
	cfg := ExtBaselinesConfig{
		Scale:      scale,
		Alpha:      0.05,
		Beta:       0.01,
		T:          300,
		T0:         5,
		ProxMu:     0.1,
		ReptileEps: 0.5,
		AdaptSteps: 10,
		Seed:       9,
	}
	if scale == ScaleCI {
		cfg.T = 100
	}
	return cfg
}

// ExtBaselinesResult holds one adaptation curve per algorithm plus the
// source-side meta-objective each final model achieves.
type ExtBaselinesResult struct {
	Names      []string
	Curves     [][]eval.AdaptPoint
	SourceMeta []float64
}

// RunExtBaselines trains all five algorithms on the same federation and
// evaluates target fast adaptation.
func RunExtBaselines(cfg ExtBaselinesConfig) (*ExtBaselinesResult, error) {
	fed, m, err := workload{dataset: "synthetic", ab: 0.5}.build(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ext-baselines: %w", err)
	}
	// Every arm runs on the platform loop; they differ only in the
	// meta-gradient mode or in what a node does between aggregations.
	variant := func(name string, mode meta.GradMode, local core.LocalRule) arm {
		return arm{name: name, build: shared(fed, m), cfg: core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
			GradMode: mode, Local: local,
		}}
	}
	arms := []arm{
		variant("FedML", meta.SecondOrder, nil),
		variant("FedML-FO", meta.FirstOrder, nil),
		variant("FedAvg", meta.SecondOrder, core.LocalSGD{}),
		variant("FedProx", meta.SecondOrder, core.LocalSGD{Mu: cfg.ProxMu}),
		variant("Reptile", meta.SecondOrder, core.Reptile{Eps: cfg.ReptileEps}),
	}
	runs, err := runArms("ext-baselines", arms)
	if err != nil {
		return nil, err
	}
	res := &ExtBaselinesResult{}
	for i, r := range runs {
		res.Names = append(res.Names, arms[i].name)
		res.Curves = append(res.Curves, eval.AverageAdaptationCurveN(m, r.theta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 0))
		res.SourceMeta = append(res.SourceMeta, eval.GlobalMetaObjectiveN(m, fed, cfg.Alpha, r.theta, 0))
	}
	return res, nil
}

// Render implements the printable experiment.
func (r *ExtBaselinesResult) Render() string {
	var b strings.Builder
	b.WriteString(renderAdaptTable(
		"Extension: baseline comparison (target adaptation accuracy)",
		r.Names, r.Curves, "accuracy"))
	b.WriteString("source meta-objective G(θ) of each final model:")
	for i, name := range r.Names {
		fmt.Fprintf(&b, "  %s: %.4f", name, r.SourceMeta[i])
	}
	b.WriteByte('\n')
	return b.String()
}
