package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/par"
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

// RunExtBaselines trains all four algorithms on the same federation and
// evaluates target fast adaptation.
func RunExtBaselines(cfg ExtBaselinesConfig) (*ExtBaselinesResult, error) {
	fed, err := syntheticFederation(0.5, 0.5, cfg.Scale, 5, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ext-baselines data: %w", err)
	}
	m := softmaxModel(fed)

	// Every arm runs on the platform loop; they differ only in the
	// meta-gradient mode or in what a node does between aggregations.
	algos := []struct {
		name  string
		mode  meta.GradMode
		local core.LocalRule
	}{
		{"FedML", meta.SecondOrder, nil},
		{"FedML-FO", meta.FirstOrder, nil},
		{"FedAvg", meta.SecondOrder, core.LocalSGD{}},
		{"FedProx", meta.SecondOrder, core.LocalSGD{Mu: cfg.ProxMu}},
		{"Reptile", meta.SecondOrder, core.Reptile{Eps: cfg.ReptileEps}},
	}

	// Algorithms are independent; train and evaluate each on the worker
	// pool into index slots.
	res := &ExtBaselinesResult{
		Names:      make([]string, len(algos)),
		Curves:     make([][]eval.AdaptPoint, len(algos)),
		SourceMeta: make([]float64, len(algos)),
	}
	err = par.ForEachErr(0, len(algos), func(c int) error {
		a := algos[c]
		trained, err := core.Train(m, fed, nil, core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
			GradMode: a.mode, Local: a.local,
		})
		if err != nil {
			return fmt.Errorf("ext-baselines %s: %w", a.name, err)
		}
		res.Names[c] = a.name
		res.Curves[c] = eval.AverageAdaptationCurveN(m, trained.Theta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 1)
		res.SourceMeta[c] = eval.GlobalMetaObjectiveN(m, fed, cfg.Alpha, trained.Theta, 1)
		return nil
	})
	if err != nil {
		return nil, err
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
