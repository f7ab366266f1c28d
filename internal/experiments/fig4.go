package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
)

// The training settings fig4 and fig4e share: FedML's rates and T0, the
// seed of the MNIST workload, and Algorithm 2's adversarial-generation
// parameters other than N0 (paper: ν = 1, Ta = 10, R = 2).
const (
	robustAlpha, robustBeta = 0.01, 0.01
	robustT0, robustSeed    = 5, 5
	robustNu                = 1
	robustTa, robustR       = 10, 2
)

// Fig4Config parameterizes the Robust-FedML evaluation on MNIST (§VI-C).
type Fig4Config struct {
	Scale Scale
	// Lambdas are the DRO penalties compared (paper: 0.1, 1, 10; smaller λ
	// = larger uncertainty set = more robustness).
	Lambdas []float64
	T       int
	// N0 is Algorithm 2's round count between adversarial generations
	// (paper: 7).
	N0 int
}

// DefaultFig4Config returns the paper configuration at the given scale.
func DefaultFig4Config(scale Scale) Fig4Config {
	// Two deviations from the paper's literal constants, both forced by
	// scale matching (EXPERIMENTS.md "Deviations"): (1) λ multiplies
	// ‖x−x₀‖² against OUR loss/feature scale, so the paper's {0.1, 1, 10}
	// is rescaled to {0.01, 0.1, 1} to span the same weak-to-strong
	// robustness range; (2) N0 is enlarged so the R=2 adversarial
	// generations happen mid-training — at the paper's N0=7 the generations
	// fire at iterations 35/70 where our model is still near its tiny
	// initialization and gradient-based perturbations are no-ops.
	cfg := Fig4Config{Scale: scale, Lambdas: []float64{0.01, 0.1, 1}, T: 500, N0: 40}
	if scale == ScaleCI {
		cfg.T = 300
		cfg.N0 = 24
		cfg.Lambdas = []float64{0.01, 1}
	}
	return cfg
}

// Fig4Result holds the Figure 4(a)–(d) panels: clean and FGSM-adversarial
// adaptation curves (each carrying both loss and accuracy) for plain FedML
// and Robust FedML at every λ.
type Fig4Result struct {
	Names []string
	Clean [][]eval.AdaptPoint
	Adv   [][]eval.AdaptPoint
	Xi    float64
}

// RunFig4 trains plain FedML plus one Robust FedML model per λ on the
// MNIST-like workload and evaluates the target-node adaptation on clean and
// FGSM-perturbed test data.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	// xi is the FGSM budget of the adversarial evaluation panels.
	const xi, adaptSteps = 0.02, 10
	fed, m, err := workload{dataset: "mnist"}.build(cfg.Scale, robustSeed)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	arms := robustArms(fed, m, cfg.T, cfg.N0, cfg.Lambdas)
	runs, err := runArms("fig4", arms)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Xi: xi}
	for i, r := range runs {
		adv, err := eval.AverageAdversarialAdaptationCurveN(m, r.theta, fed.Targets, robustAlpha, adaptSteps, xi, 0, 1, 0)
		if err != nil {
			return nil, fmt.Errorf("fig4 adversarial eval %s: %w", arms[i].name, err)
		}
		res.Names = append(res.Names, arms[i].name)
		res.Clean = append(res.Clean, eval.AverageAdaptationCurveN(m, r.theta, fed.Targets, robustAlpha, adaptSteps, 0))
		res.Adv = append(res.Adv, adv)
	}
	return res, nil
}

// robustArms is plain FedML for t iterations, then one Robust FedML arm per
// λ that generates adversarial samples every n0 rounds, clamped to MNIST's
// pixel domain [0, 1]. All train on one read-only federation.
func robustArms(fed *data.Federation, m nn.Model, t, n0 int, lambdas []float64) []arm {
	base := core.Config{Alpha: robustAlpha, Beta: robustBeta, T: t, T0: robustT0, Seed: robustSeed}
	arms := []arm{{name: "FedML", cfg: base, build: shared(fed, m)}}
	for _, lambda := range lambdas {
		c := base
		c.Robust = &core.RobustConfig{Lambda: lambda, Nu: robustNu, Ta: robustTa, N0: n0, R: robustR, ClampMin: 0, ClampMax: 1}
		arms = append(arms, arm{name: fmt.Sprintf("Robust λ=%g", lambda), cfg: c, build: shared(fed, m)})
	}
	return arms
}

// Render prints all four panels.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4(a-d): Adaptation performance of Robust FedML on MNIST (FGSM ξ=%g)\n", r.Xi)
	b.WriteString(renderAdaptTable("Panel (a): loss on clean data", r.Names, r.Clean, "loss"))
	b.WriteString(renderAdaptTable("Panel (b): loss on adversarial data", r.Names, r.Adv, "loss"))
	b.WriteString(renderAdaptTable("Panel (c): accuracy on clean data", r.Names, r.Clean, "accuracy"))
	b.WriteString(renderAdaptTable("Panel (d): accuracy on adversarial data", r.Names, r.Adv, "accuracy"))
	return b.String()
}

// Fig4eConfig parameterizes the FGSM-budget sweep.
type Fig4eConfig struct {
	Scale Scale
	// Xis are the FGSM budgets swept on the x-axis.
	Xis []float64
	// Lambda is the Robust-FedML penalty to compare against plain FedML
	// (paper's robust setting: the small-λ, most-robust model).
	Lambda float64
	// T and N0 are as in Fig4Config.
	T, N0 int
}

// DefaultFig4eConfig returns the paper configuration at the given scale.
func DefaultFig4eConfig(scale Scale) Fig4eConfig {
	// The ξ grid covers the attack strengths the DRO training radius can
	// defend (see DefaultFig4Config for the λ/N0 rescaling rationale); the
	// paper's improvement-grows-with-ξ shape holds inside that range and
	// collapses once ξ exceeds the trained radius.
	cfg := Fig4eConfig{Scale: scale, Xis: []float64{0.005, 0.01, 0.02, 0.05}, Lambda: 0.1, T: 500, N0: 40}
	if scale == ScaleCI {
		cfg.T = 300
		cfg.N0 = 24
		cfg.Xis = []float64{0.005, 0.02}
		// At the shorter CI budget the model (and hence its input
		// gradients) is smaller, shifting the useful λ range down.
		cfg.Lambda = 0.01
	}
	return cfg
}

// Fig4eResult tabulates final-step adversarial accuracy vs FGSM budget ξ.
type Fig4eResult struct {
	Xis         []float64
	FedMLAcc    []float64
	RobustAcc   []float64
	Improvement []float64
}

// RunFig4e reproduces Figure 4(e): the accuracy improvement of Robust FedML
// over FedML as a function of the attack strength ξ.
func RunFig4e(cfg Fig4eConfig) (*Fig4eResult, error) {
	const adaptSteps = 5
	fed, m, err := workload{dataset: "mnist"}.build(cfg.Scale, robustSeed)
	if err != nil {
		return nil, fmt.Errorf("fig4e: %w", err)
	}
	arms := robustArms(fed, m, cfg.T, cfg.N0, []float64{cfg.Lambda})
	runs, err := runArms("fig4e", arms)
	if err != nil {
		return nil, err
	}
	res := &Fig4eResult{Xis: cfg.Xis}
	for _, xi := range cfg.Xis {
		var final [2]float64
		for i, r := range runs {
			curve, err := eval.AverageAdversarialAdaptationCurveN(m, r.theta, fed.Targets, robustAlpha, adaptSteps, xi, 0, 1, 0)
			if err != nil {
				return nil, fmt.Errorf("fig4e %s ξ=%g: %w", arms[i].name, xi, err)
			}
			final[i] = curve[len(curve)-1].Accuracy
		}
		res.FedMLAcc = append(res.FedMLAcc, final[0])
		res.RobustAcc = append(res.RobustAcc, final[1])
		res.Improvement = append(res.Improvement, final[1]-final[0])
	}
	return res, nil
}

// Render implements the printable figure.
func (r *Fig4eResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4(e): Impact of FGSM budget ξ (adversarial accuracy after adaptation)\n")
	fmt.Fprintf(&b, "%-8s %-12s %-12s %-12s\n", "xi", "FedML", "RobustFedML", "improvement")
	for i, xi := range r.Xis {
		fmt.Fprintf(&b, "%-8g %-12.4f %-12.4f %-+12.4f\n", xi, r.FedMLAcc[i], r.RobustAcc[i], r.Improvement[i])
	}
	return b.String()
}
