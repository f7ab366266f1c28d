package experiments

import (
	"fmt"
	"sort"
)

// Renderable is a result that can print itself in the paper's table/series
// format.
type Renderable interface {
	Render() string
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the figure/table identifier (e.g. "fig2a").
	ID string
	// Description says what the paper shows there.
	Description string
	// Run executes the experiment at the requested scale, fanning out over
	// GOMAXPROCS workers. Results are bit-identical for every GOMAXPROCS.
	Run func(scale Scale) (Renderable, error)
}

// All returns the experiment registry, sorted by ID.
func All() []Experiment {
	exps := []Experiment{
		{
			ID:          "table1",
			Description: "Dataset statistics (nodes, samples per node)",
			Run: func(s Scale) (Renderable, error) {
				return RunTable1(Table1Config{Scale: s, Seed: 1})
			},
		},
		{
			ID:          "fig2a",
			Description: "Impact of node similarity on FedML convergence (T0=10)",
			Run: func(s Scale) (Renderable, error) {
				return RunFig2a(DefaultFig2aConfig(s))
			},
		},
		{
			ID:          "fig2b",
			Description: "Impact of local update count T0 on convergence (fixed T)",
			Run: func(s Scale) (Renderable, error) {
				return RunFig2b(DefaultFig2bConfig(s))
			},
		},
		{
			ID:          "fig3a",
			Description: "FedML convergence on non-convex Sent140",
			Run: func(s Scale) (Renderable, error) {
				return RunFig3a(DefaultFig3aConfig(s))
			},
		},
		{
			ID:          "fig3b",
			Description: "Impact of target-source similarity on adaptation accuracy",
			Run: func(s Scale) (Renderable, error) {
				return RunFig3b(DefaultFig3bConfig(s))
			},
		},
		{
			ID:          "fig3c",
			Description: "FedML vs FedAvg fast adaptation on Synthetic(0.5,0.5)",
			Run: func(s Scale) (Renderable, error) {
				return RunAdaptCompare(DefaultAdaptCompareConfig("synthetic", s))
			},
		},
		{
			ID:          "fig3d",
			Description: "FedML vs FedAvg fast adaptation on MNIST",
			Run: func(s Scale) (Renderable, error) {
				return RunAdaptCompare(DefaultAdaptCompareConfig("mnist", s))
			},
		},
		{
			ID:          "fig3e",
			Description: "FedML vs FedAvg fast adaptation on Sent140",
			Run: func(s Scale) (Renderable, error) {
				return RunAdaptCompare(DefaultAdaptCompareConfig("sent140", s))
			},
		},
		{
			ID:          "fig4",
			Description: "Robust FedML vs FedML on clean and FGSM data (λ sweep)",
			Run: func(s Scale) (Renderable, error) {
				return RunFig4(DefaultFig4Config(s))
			},
		},
		{
			ID:          "fig4e",
			Description: "Robust-FedML improvement vs FGSM budget ξ",
			Run: func(s Scale) (Renderable, error) {
				return RunFig4e(DefaultFig4eConfig(s))
			},
		},
		{
			ID:          "thm3",
			Description: "Extension: target adaptation gap vs surrogate distance (Theorem 3)",
			Run: func(s Scale) (Renderable, error) {
				return RunThm3(DefaultThm3Config(s))
			},
		},
		{
			ID:          "ext-time",
			Description: "Extension: modelled time-to-target-G by T0 and network profile",
			Run: func(s Scale) (Renderable, error) {
				return RunExtTime(DefaultExtTimeConfig(s))
			},
		},
		{
			ID:          "ext-baselines",
			Description: "Extension: FedML vs FedML-FO vs FedAvg vs FedProx vs Reptile",
			Run: func(s Scale) (Renderable, error) {
				return RunExtBaselines(DefaultExtBaselinesConfig(s))
			},
		},
		{
			ID:          "ext-codec",
			Description: "Extension: accuracy vs wire bytes by update codec (raw/f16/q8/topk)",
			Run: func(s Scale) (Renderable, error) {
				return RunExtCodec(DefaultExtCodecConfig(s))
			},
		},
		{
			ID:          "ext-energy",
			Description: "Extension: accuracy vs modeled joules under partial sync and energy budgets",
			Run: func(s Scale) (Renderable, error) {
				return RunExtEnergy(DefaultExtEnergyConfig(s))
			},
		},
		{
			ID:          "ext-async",
			Description: "Extension: buffered-async vs sync round throughput under latency skew",
			Run: func(s Scale) (Renderable, error) {
				return RunExtAsync(DefaultExtAsyncConfig(s))
			},
		},
		{
			ID:          "ext-scale",
			Description: "Extension: fleet-scale two-tier aggregation (10⁵–10⁶ simulated nodes/round)",
			Run: func(s Scale) (Renderable, error) {
				return RunExtScale(DefaultExtScaleConfig(s))
			},
		},
		{
			ID:          "ext-rec",
			Description: "Extension: federated recommendation — personalized vs global baselines (FedML/FedAvg/FedProx/RepShare)",
			Run: func(s Scale) (Renderable, error) {
				return RunExtWorkload(DefaultExtWorkloadConfig("rec", s))
			},
		},
		{
			ID:          "ext-fault",
			Description: "Extension: TinyML fault classification — personalized vs global baselines under class skew",
			Run: func(s Scale) (Renderable, error) {
				return RunExtWorkload(DefaultExtWorkloadConfig("fault", s))
			},
		},
		{
			ID:          "ext-meta-opt",
			Description: "Extension: outer-optimizer ablation (SGD vs momentum vs Adam)",
			Run: func(s Scale) (Renderable, error) {
				return RunExtMetaOpt(DefaultExtMetaOptConfig(s))
			},
		},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Run executes the experiment with the given ID at the given scale and
// returns its rendered output.
func Run(id string, scale Scale) (string, error) {
	for _, e := range All() {
		if e.ID == id {
			res, err := e.Run(scale)
			if err != nil {
				return "", fmt.Errorf("experiment %s: %w", id, err)
			}
			return res.Render(), nil
		}
	}
	return "", fmt.Errorf("experiments: unknown experiment %q", id)
}
