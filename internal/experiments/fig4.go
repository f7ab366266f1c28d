package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/tensor"
)

// Fig4Config parameterizes the Robust-FedML evaluation on MNIST (§VI-C).
type Fig4Config struct {
	Scale Scale
	// Lambdas are the DRO penalties compared (paper: 0.1, 1, 10; smaller λ
	// = larger uncertainty set = more robustness).
	Lambdas []float64
	// Alpha, Beta are the FedML learning rates.
	Alpha, Beta float64
	T, T0       int
	// Nu, Ta, N0, R are the Algorithm 2 adversarial-generation parameters
	// (paper: ν=1, Ta=10, N0=7, R=2).
	Nu        float64
	Ta, N0, R int
	// Xi is the FGSM budget used for the adversarial evaluation panels.
	Xi         float64
	AdaptSteps int
	Seed       uint64
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
	cfg := Fig4Config{
		Scale:      scale,
		Lambdas:    []float64{0.01, 0.1, 1},
		Alpha:      0.01,
		Beta:       0.01,
		T:          500,
		T0:         5,
		Nu:         1,
		Ta:         10,
		N0:         40,
		R:          2,
		Xi:         0.02,
		AdaptSteps: 10,
		Seed:       5,
	}
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
	fed, err := mnistFederation(cfg.Scale, 5, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig4 data: %w", err)
	}
	m := softmaxModel(fed)

	type trained struct {
		name  string
		theta tensor.Vec
	}
	// Slot 0 is plain FedML; slot i+1 is Robust at Lambdas[i]. The
	// trainings are independent (the federation is read-only) and run on
	// the worker pool into index slots.
	models := make([]trained, 1+len(cfg.Lambdas))
	err = par.ForEachErr(0, len(models), func(c int) error {
		trainCfg := core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
		}
		name := "FedML"
		if c > 0 {
			lambda := cfg.Lambdas[c-1]
			name = fmt.Sprintf("Robust λ=%g", lambda)
			trainCfg.Robust = &core.RobustConfig{
				Lambda: lambda, Nu: cfg.Nu, Ta: cfg.Ta, N0: cfg.N0, R: cfg.R,
				ClampMin: 0, ClampMax: 1, // MNIST pixel domain
			}
		}
		trainRes, err := core.Train(m, fed, nil, trainCfg)
		if err != nil {
			return fmt.Errorf("fig4 %s: %w", name, err)
		}
		models[c] = trained{name: name, theta: trainRes.Theta}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig4Result{
		Xi:    cfg.Xi,
		Names: make([]string, len(models)),
		Clean: make([][]eval.AdaptPoint, len(models)),
		Adv:   make([][]eval.AdaptPoint, len(models)),
	}
	err = par.ForEachErr(0, len(models), func(c int) error {
		tr := models[c]
		clean := eval.AverageAdaptationCurveN(m, tr.theta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 1)
		adv, err := eval.AverageAdversarialAdaptationCurveN(m, tr.theta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, cfg.Xi, 0, 1, 1)
		if err != nil {
			return fmt.Errorf("fig4 adversarial eval %s: %w", tr.name, err)
		}
		res.Names[c] = tr.name
		res.Clean[c] = clean
		res.Adv[c] = adv
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
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
	// Training parameters as in Fig4Config.
	Alpha, Beta float64
	T, T0       int
	Nu          float64
	Ta, N0, R   int
	AdaptSteps  int
	Seed        uint64
}

// DefaultFig4eConfig returns the paper configuration at the given scale.
func DefaultFig4eConfig(scale Scale) Fig4eConfig {
	// The ξ grid covers the attack strengths the DRO training radius can
	// defend (see DefaultFig4Config for the λ/N0 rescaling rationale); the
	// paper's improvement-grows-with-ξ shape holds inside that range and
	// collapses once ξ exceeds the trained radius.
	cfg := Fig4eConfig{
		Scale:      scale,
		Xis:        []float64{0.005, 0.01, 0.02, 0.05},
		Lambda:     0.1,
		Alpha:      0.01,
		Beta:       0.01,
		T:          500,
		T0:         5,
		Nu:         1,
		Ta:         10,
		N0:         40,
		R:          2,
		AdaptSteps: 5,
		Seed:       5,
	}
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
	fed, err := mnistFederation(cfg.Scale, 5, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("fig4e data: %w", err)
	}
	m := softmaxModel(fed)

	// The plain and robust trainings are independent; run both on the pool.
	thetas := make([]tensor.Vec, 2)
	err = par.ForEachErr(0, 2, func(c int) error {
		trainCfg := core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
		}
		name := "FedML"
		if c == 1 {
			name = "Robust"
			trainCfg.Robust = &core.RobustConfig{
				Lambda: cfg.Lambda, Nu: cfg.Nu, Ta: cfg.Ta, N0: cfg.N0, R: cfg.R,
				ClampMin: 0, ClampMax: 1,
			}
		}
		trainRes, err := core.Train(m, fed, nil, trainCfg)
		if err != nil {
			return fmt.Errorf("fig4e %s: %w", name, err)
		}
		thetas[c] = trainRes.Theta
		return nil
	})
	if err != nil {
		return nil, err
	}
	plainTheta, robustTheta := thetas[0], thetas[1]

	res := &Fig4eResult{
		Xis:         cfg.Xis,
		FedMLAcc:    make([]float64, len(cfg.Xis)),
		RobustAcc:   make([]float64, len(cfg.Xis)),
		Improvement: make([]float64, len(cfg.Xis)),
	}
	err = par.ForEachErr(0, len(cfg.Xis), func(c int) error {
		xi := cfg.Xis[c]
		pc, err := eval.AverageAdversarialAdaptationCurveN(m, plainTheta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, xi, 0, 1, 1)
		if err != nil {
			return fmt.Errorf("fig4e FedML ξ=%g: %w", xi, err)
		}
		rc, err := eval.AverageAdversarialAdaptationCurveN(m, robustTheta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, xi, 0, 1, 1)
		if err != nil {
			return fmt.Errorf("fig4e Robust ξ=%g: %w", xi, err)
		}
		pa := pc[len(pc)-1].Accuracy
		ra := rc[len(rc)-1].Accuracy
		res.FedMLAcc[c] = pa
		res.RobustAcc[c] = ra
		res.Improvement[c] = ra - pa
		return nil
	})
	if err != nil {
		return nil, err
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
