package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/rng"
)

// Fig3aConfig parameterizes the Sent140 convergence experiment.
type Fig3aConfig struct {
	Scale Scale
	// Alpha, Beta are the learning rates (paper: α=0.01, β=0.3 for Sent140).
	Alpha, Beta float64
	T, T0       int
	// Participation enables client sampling (0 = full participation).
	Participation float64
	Seed          uint64
}

// DefaultFig3aConfig returns the paper configuration at the given scale
// (T0 = 5 as in Figure 3's caption). At paper scale the 706-node fleet uses
// 20% client sampling per round to keep the wall-clock tractable.
func DefaultFig3aConfig(scale Scale) Fig3aConfig {
	cfg := Fig3aConfig{Scale: scale, Alpha: 0.01, Beta: 0.3, T: 100, T0: 5, Participation: 0.1, Seed: 2}
	if scale == ScaleCI {
		cfg.T = 40
		cfg.Participation = 0
	}
	return cfg
}

// Fig3aResult is the Sent140 training-objective trace.
type Fig3aResult struct {
	Curve *eval.Series
}

// RunFig3a reproduces Figure 3(a): FedML convergence on the non-convex
// Sent140 model (training loss G(θ), no G* exists for non-convex losses).
func RunFig3a(cfg Fig3aConfig) (*Fig3aResult, error) {
	runs, err := runArms("fig3a", []arm{{
		name: "FedML Sent140",
		cfg: core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
			Participation: cfg.Participation,
		},
		build:     workload{dataset: "sent140"}.builder(cfg.Scale, cfg.Seed),
		objective: &objectiveProbe{alpha: cfg.Alpha, view: 100},
	}})
	if err != nil {
		return nil, err
	}
	return &Fig3aResult{Curve: runs[0].objective}, nil
}

// Render implements the printable figure.
func (r *Fig3aResult) Render() string {
	return renderSeriesTable(
		"Figure 3(a): Convergence of FedML on Sent140 (T0=5)",
		"meta-objective G(θ_t)", []*eval.Series{r.Curve})
}

// Fig3bConfig parameterizes the target-source-similarity experiment.
type Fig3bConfig struct {
	Scale        Scale
	Similarities []float64
	Alpha, Beta  float64
	T, T0        int
	// AdaptSteps is the number of fast-adaptation gradient steps evaluated
	// at the target nodes.
	AdaptSteps int
	Seed       uint64
}

// DefaultFig3bConfig returns the paper configuration at the given scale.
func DefaultFig3bConfig(scale Scale) Fig3bConfig {
	cfg := Fig3bConfig{
		Scale:        scale,
		Similarities: []float64{0, 0.5, 1},
		Alpha:        0.01,
		Beta:         0.01,
		T:            500,
		T0:           5,
		AdaptSteps:   10,
		Seed:         3,
	}
	if scale == ScaleCI {
		cfg.T = 150
	}
	return cfg
}

// Fig3bResult holds one target-adaptation accuracy curve per similarity.
type Fig3bResult struct {
	Names  []string
	Curves [][]eval.AdaptPoint
	// FinalAccuracies are the end-of-curve accuracies; the paper's claim is
	// that they decrease as (α̃, β̃) grows.
	FinalAccuracies []float64
}

// RunFig3b reproduces Figure 3(b): the impact of target-source similarity on
// test performance after fast adaptation. Each similarity level is an arm
// that builds its own federation.
func RunFig3b(cfg Fig3bConfig) (*Fig3bResult, error) {
	arms := make([]arm, len(cfg.Similarities))
	for i, ab := range cfg.Similarities {
		arms[i] = arm{
			name:  fmt.Sprintf("Synthetic(%g,%g)", ab, ab),
			cfg:   core.Config{Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed},
			build: workload{dataset: "synthetic", ab: ab}.builder(cfg.Scale, cfg.Seed),
		}
	}
	runs, err := runArms("fig3b", arms)
	if err != nil {
		return nil, err
	}
	res := &Fig3bResult{}
	for i, r := range runs {
		curve := eval.AverageAdaptationCurveN(r.model, r.theta, r.fed.Targets, cfg.Alpha, cfg.AdaptSteps, 0)
		res.Names = append(res.Names, arms[i].name)
		res.Curves = append(res.Curves, curve)
		res.FinalAccuracies = append(res.FinalAccuracies, curve[len(curve)-1].Accuracy)
	}
	return res, nil
}

// Render implements the printable figure.
func (r *Fig3bResult) Render() string {
	return renderAdaptTable(
		"Figure 3(b): Impact of target-source similarity on test performance",
		r.Names, r.Curves, "accuracy")
}

// AdaptCompareConfig parameterizes the FedML-vs-FedAvg fast-adaptation
// comparison of Figures 3(c)–3(e).
type AdaptCompareConfig struct {
	Scale Scale
	// Dataset selects the workload: "synthetic", "mnist" or "sent140".
	Dataset string
	// Ks lists the target-node training-set sizes to compare; FedML is
	// re-trained for every K (its inner step uses K samples), FedAvg trains
	// once on the full local datasets.
	Ks []int
	// Alpha, Beta are FedML's rates; FedAvg uses Beta (as in the paper).
	Alpha, Beta float64
	T, T0       int
	// Participation enables client sampling in FedML training (0 = full).
	Participation float64
	AdaptSteps    int
	Seed          uint64
}

// DefaultAdaptCompareConfig returns the paper configuration for the given
// dataset at the given scale (T0 = 5 per Figure 3's caption).
func DefaultAdaptCompareConfig(dataset string, scale Scale) AdaptCompareConfig {
	cfg := AdaptCompareConfig{
		Scale:      scale,
		Dataset:    dataset,
		Ks:         []int{5, 10, 20},
		Alpha:      0.05,
		Beta:       0.01,
		T:          500,
		T0:         5,
		AdaptSteps: 10,
		Seed:       4,
	}
	if dataset == "sent140" {
		cfg.Alpha = 0.01
		cfg.Beta = 0.3
		cfg.T = 100
		cfg.Ks = []int{5, 10}
		cfg.Participation = 0.1 // tractability on the 706-node fleet
	}
	if scale == ScaleCI {
		cfg.T = 100
		cfg.Ks = []int{5, 10}
		cfg.Participation = 0
	}
	return cfg
}

// AdaptCompareResult holds, for every K, the averaged target adaptation
// curves of FedML and FedAvg, plus a paired-bootstrap comparison of the
// final per-target accuracies (positive mean = FedML ahead).
type AdaptCompareResult struct {
	Dataset   string
	Ks        []int
	FedML     [][]eval.AdaptPoint
	FedAvg    [][]eval.AdaptPoint
	Bootstrap []eval.BootstrapResult
}

// RunAdaptCompare reproduces one of Figures 3(c)–3(e): fast-adaptation
// performance at held-out target nodes, FedML vs the FedAvg baseline. Every
// K is a pair of arms on one resplit federation.
func RunAdaptCompare(cfg AdaptCompareConfig) (*AdaptCompareResult, error) {
	// Generate node datasets large enough to re-split at the biggest K.
	maxK := 0
	for _, k := range cfg.Ks {
		if k > maxK {
			maxK = k
		}
	}
	if maxK == 0 {
		return nil, fmt.Errorf("experiments: adapt-compare needs at least one K")
	}
	fed, m, err := workload{dataset: cfg.Dataset, ab: 0.5, k: maxK}.build(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("adapt-compare: %w", err)
	}

	// The resplits draw from one shared sequential RNG stream, so they must
	// happen in K order BEFORE the arms fan out — otherwise the split for
	// a given K would depend on the execution schedule.
	splitRng := rng.New(cfg.Seed ^ 0xfeed)
	var arms []arm
	for _, k := range cfg.Ks {
		fedK, err := fed.Resplit(splitRng, k)
		if err != nil {
			return nil, fmt.Errorf("adapt-compare resplit K=%d: %w", k, err)
		}
		arms = append(arms, arm{
			name: fmt.Sprintf("FedML K=%d", k),
			cfg: core.Config{
				Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
				Participation: cfg.Participation,
			},
			build: shared(fedK, m),
		}, arm{
			name:  fmt.Sprintf("FedAvg K=%d", k),
			cfg:   core.Config{Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed, Local: core.LocalSGD{}},
			build: shared(fedK, m),
		})
	}
	runs, err := runArms("adapt-compare", arms)
	if err != nil {
		return nil, err
	}
	res := &AdaptCompareResult{Dataset: cfg.Dataset, Ks: cfg.Ks}
	for i, k := range cfg.Ks {
		ml, avg := runs[2*i], runs[2*i+1]
		targets := ml.fed.Targets
		res.FedML = append(res.FedML, eval.AverageAdaptationCurveN(m, ml.theta, targets, cfg.Alpha, cfg.AdaptSteps, 0))
		res.FedAvg = append(res.FedAvg, eval.AverageAdaptationCurveN(m, avg.theta, targets, cfg.Alpha, cfg.AdaptSteps, 0))
		boot, err := eval.CompareAlgorithmsN(rng.New(cfg.Seed^0xb007), m,
			ml.theta, avg.theta, targets, cfg.Alpha, cfg.AdaptSteps, 2000, 0.95, 0)
		if err != nil {
			return nil, fmt.Errorf("adapt-compare bootstrap K=%d: %w", k, err)
		}
		res.Bootstrap = append(res.Bootstrap, boot)
	}
	return res, nil
}

// Render implements the printable figure.
func (r *AdaptCompareResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3(c-e): Fast adaptation at target nodes, FedML vs FedAvg, dataset=%s\n", r.Dataset)
	for i, k := range r.Ks {
		names := []string{fmt.Sprintf("FedML K=%d", k), fmt.Sprintf("FedAvg K=%d", k)}
		b.WriteString(renderAdaptTable(fmt.Sprintf("-- K = %d --", k),
			names, [][]eval.AdaptPoint{r.FedML[i], r.FedAvg[i]}, "accuracy"))
		if i < len(r.Bootstrap) {
			bs := r.Bootstrap[i]
			verdict := "not significant"
			if bs.Significant {
				verdict = "significant"
			}
			fmt.Fprintf(&b, "paired bootstrap (FedML − FedAvg, final step): %+.4f, 95%% CI [%+.4f, %+.4f] — %s\n",
				bs.MeanDiff, bs.Lo, bs.Hi, verdict)
		}
	}
	return b.String()
}
