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
		entry("table1", "Dataset statistics (nodes, samples per node)", defaultTable1Config, RunTable1),
		entry("fig2a", "Impact of node similarity on FedML convergence (T0=10)", DefaultFig2aConfig, RunFig2a),
		entry("fig2b", "Impact of local update count T0 on convergence (fixed T)", DefaultFig2bConfig, RunFig2b),
		entry("fig3a", "FedML convergence on non-convex Sent140", DefaultFig3aConfig, RunFig3a),
		entry("fig3b", "Impact of target-source similarity on adaptation accuracy", DefaultFig3bConfig, RunFig3b),
		entry("fig3c", "FedML vs FedAvg fast adaptation on Synthetic(0.5,0.5)", on("synthetic", DefaultAdaptCompareConfig), RunAdaptCompare),
		entry("fig3d", "FedML vs FedAvg fast adaptation on MNIST", on("mnist", DefaultAdaptCompareConfig), RunAdaptCompare),
		entry("fig3e", "FedML vs FedAvg fast adaptation on Sent140", on("sent140", DefaultAdaptCompareConfig), RunAdaptCompare),
		entry("fig4", "Robust FedML vs FedML on clean and FGSM data (λ sweep)", DefaultFig4Config, RunFig4),
		entry("fig4e", "Robust-FedML improvement vs FGSM budget ξ", DefaultFig4eConfig, RunFig4e),
		entry("thm3", "Extension: target adaptation gap vs surrogate distance (Theorem 3)", DefaultThm3Config, RunThm3),
		entry("ext-time", "Extension: modelled time-to-target-G by T0 and network profile", DefaultExtTimeConfig, RunExtTime),
		entry("ext-baselines", "Extension: FedML vs FedML-FO vs FedAvg vs FedProx vs Reptile", DefaultExtBaselinesConfig, RunExtBaselines),
		entry("ext-codec", "Extension: accuracy vs wire bytes by update codec (raw/f16/q8/topk)", DefaultExtCodecConfig, RunExtCodec),
		entry("ext-energy", "Extension: accuracy vs modeled joules under partial sync and energy budgets", DefaultExtEnergyConfig, RunExtEnergy),
		entry("ext-async", "Extension: buffered-async vs sync round throughput under latency skew", DefaultExtAsyncConfig, RunExtAsync),
		entry("ext-scale", "Extension: fleet-scale two-tier aggregation (10⁵–10⁶ simulated nodes/round)", DefaultExtScaleConfig, RunExtScale),
		entry("ext-rec", "Extension: federated recommendation — personalized vs global baselines (FedML/FedAvg/FedProx/RepShare)",
			on("rec", DefaultExtWorkloadConfig), RunExtWorkload),
		entry("ext-fault", "Extension: TinyML fault classification — personalized vs global baselines under class skew",
			on("fault", DefaultExtWorkloadConfig), RunExtWorkload),
		entry("ext-meta-opt", "Extension: outer-optimizer ablation (SGD vs momentum vs Adam)", DefaultExtMetaOptConfig, RunExtMetaOpt),
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// entry registers the experiment that runs run on config's configuration at
// the requested scale.
func entry[C any, R Renderable](id, description string, config func(Scale) C, run func(C) (R, error)) Experiment {
	return Experiment{ID: id, Description: description, Run: func(s Scale) (Renderable, error) {
		return run(config(s))
	}}
}

// on fixes the dataset or workload name of a configuration constructor.
func on[C any](name string, config func(string, Scale) C) func(Scale) C {
	return func(s Scale) C { return config(name, s) }
}

// defaultTable1Config is Table I at the given scale.
func defaultTable1Config(s Scale) Table1Config { return Table1Config{Scale: s} }

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
