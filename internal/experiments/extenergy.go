package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
)

// The paper motivates FedML by the resource constraints of wireless edge
// nodes but reports convergence only against iteration counts. This
// extension prices the runs in joules under an EnergyModel and compares
// three sync policies on what each joule buys: full-parameter sync, head-only
// partial sync (SyncMask — freeze the feature layers after warmup, keep
// syncing the output head), and head-only sync with budget-aware
// participation (a node whose modeled per-round cost exceeds its energy
// budget sits the round out). On a radio-dominated profile the masked runs
// reach comparable adapted accuracy several times cheaper, and the budgeted
// arm shows a hungry node being excluded while full payloads fly and
// re-admitted once the mask shrinks the per-round bill under its budget.

// ExtEnergyConfig parameterizes the accuracy-vs-energy experiment.
type ExtEnergyConfig struct {
	Scale Scale
	// Alpha, Beta are the FedML rates; T the iteration budget, T0 the local
	// steps per round.
	Alpha, Beta float64
	T, T0       int
	// Warmup is the number of full-sync rounds before the head mask engages.
	Warmup int
	// Hidden is the MLP hidden width (the frozen feature layer; the softmax
	// models elsewhere are all head, so partial sync needs a deeper model).
	Hidden int
	// AdaptSteps is the target-side adaptation depth for the accuracy probe.
	AdaptSteps int
	// Profile selects the core.EnergyProfiles radio ("lora-like", "wifi",
	// "datacenter"); ComputeJPerIter is its workload-dependent compute term.
	Profile         string
	ComputeJPerIter float64
	// HungryScale is the energy multiplier of the last source node in the
	// budgeted arm (a node with a power-hungry radio). The arm's per-node
	// per-round budget is 2x the modeled full-sync round cost of an
	// unscaled node, so regular nodes always fit while the hungry node only
	// fits once the mask discounts its traffic.
	HungryScale float64
	Seed        uint64
}

// DefaultExtEnergyConfig returns the experiment configuration.
func DefaultExtEnergyConfig(scale Scale) ExtEnergyConfig {
	cfg := ExtEnergyConfig{
		Scale:           scale,
		Alpha:           0.01,
		Beta:            0.01,
		T:               500,
		T0:              10,
		Warmup:          2,
		Hidden:          16,
		AdaptSteps:      10,
		Profile:         "lora-like",
		ComputeJPerIter: 1e-4,
		HungryScale:     10,
		Seed:            1,
	}
	if scale == ScaleCI {
		cfg.T = 120
	}
	return cfg
}

// ExtEnergyResult holds one accuracy-vs-joules and one accuracy-vs-KiB curve
// per arm, plus the summary row each pair collapses to.
type ExtEnergyResult struct {
	Profile string
	// Arms names the sync policies, in curve order: full-sync, head-sync,
	// head-sync+budget.
	Arms []string
	// AccVsJoules plots mean adapted target accuracy (y) against cumulative
	// modeled joules across the fleet (x, in the Series iteration slot).
	AccVsJoules []*eval.Series
	// AccVsKiB plots the same accuracy against cumulative wire KiB — the
	// ext-codec axis, so energy and traffic savings can be read side by side.
	AccVsKiB []*eval.Series
	// TotalJoules, TotalKiB, FinalAcc, BudgetFiltered are per-arm totals.
	TotalJoules    []float64
	TotalKiB       []float64
	FinalAcc       []float64
	BudgetFiltered []int
}

// RunExtEnergy trains the same federation under each sync policy and reports
// adapted accuracy against the modeled energy spent to reach it.
func RunExtEnergy(cfg ExtEnergyConfig) (*ExtEnergyResult, error) {
	profiles := core.EnergyProfiles(cfg.ComputeJPerIter)
	em, ok := profiles[cfg.Profile]
	if !ok {
		return nil, fmt.Errorf("ext-energy: unknown energy profile %q", cfg.Profile)
	}
	w := workload{dataset: "synthetic", ab: 0.5, hidden: cfg.Hidden}
	// headSync builds the arm's own federation and MLP, then syncs only the
	// output head after warmup; with budget, the last source node's radio
	// is HungryScale times as costly and every node gets a per-round budget
	// of twice the modeled full-sync round cost of an unscaled node, so
	// only the mask's discount lets the hungry node in.
	headSync := func(budget bool) func(*core.Config) (*data.Federation, nn.Model, error) {
		return func(c *core.Config) (*data.Federation, nn.Model, error) {
			fed, m, err := w.build(cfg.Scale, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			if c.SyncMask, err = core.ResolveSyncMask(fmt.Sprintf("head:%d", cfg.Warmup), m); err != nil {
				return nil, nil, fmt.Errorf("mask: %w", err)
			}
			if budget {
				fullBytes := int64(8 * m.NumParams())
				c.EnergyBudget = 2 * em.RoundJoules(fullBytes, fullBytes, cfg.T0)
				c.EnergyScale = make([]float64, len(fed.Sources))
				for i := range c.EnergyScale {
					c.EnergyScale[i] = 1
				}
				c.EnergyScale[len(c.EnergyScale)-1] = cfg.HungryScale
			}
			return fed, m, nil
		}
	}
	base := core.Config{Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed, Energy: &em}
	probe := &accuracyProbe{alpha: cfg.Alpha, steps: cfg.AdaptSteps}
	runs, err := runArms("ext-energy", []arm{
		{name: "full-sync", cfg: base, build: w.builder(cfg.Scale, cfg.Seed), accuracy: probe},
		{name: "head-sync", cfg: base, build: headSync(false), accuracy: probe},
		{name: "head+budget", cfg: base, build: headSync(true), accuracy: probe},
	})
	if err != nil {
		return nil, err
	}
	res := &ExtEnergyResult{Profile: cfg.Profile}
	for _, r := range runs {
		last, _ := r.accVsJ.Last()
		res.Arms = append(res.Arms, r.accVsJ.Name)
		res.AccVsJoules = append(res.AccVsJoules, r.accVsJ)
		res.AccVsKiB = append(res.AccVsKiB, r.accVsKiB)
		res.TotalJoules = append(res.TotalJoules, float64(last.Iter))
		res.TotalKiB = append(res.TotalKiB, float64(r.comm.Bytes)/1024)
		res.FinalAcc = append(res.FinalAcc, last.Value)
		res.BudgetFiltered = append(res.BudgetFiltered, r.comm.BudgetFiltered)
	}
	return res, nil
}

// Render implements the printable extension: accuracy-vs-joules blocks,
// accuracy-vs-KiB blocks, then the summary table with energy ratios against
// the full-sync baseline.
func (r *ExtEnergyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: adapted accuracy vs modeled energy (%s radio), full vs head-only sync\n", r.Profile)
	for _, s := range r.AccVsJoules {
		fmt.Fprintf(&b, "arm %s (J -> mean target accuracy)\n", s.Name)
		b.WriteString(s.TSV())
	}
	for _, s := range r.AccVsKiB {
		fmt.Fprintf(&b, "arm %s (KiB -> mean target accuracy)\n", s.Name)
		b.WriteString(s.TSV())
	}
	b.WriteString("arm          total J     total KiB   final acc   J ratio vs full   budget-filtered\n")
	base := r.TotalJoules[0]
	for i, name := range r.Arms {
		fmt.Fprintf(&b, "%-12s %-11.0f %-11.1f %-11.4f %-17.2f %d\n",
			name, r.TotalJoules[i], r.TotalKiB[i], r.FinalAcc[i], base/r.TotalJoules[i], r.BudgetFiltered[i])
	}
	b.WriteString("(head-only sync freezes the feature layers after warmup; the budgeted arm excludes the\n" +
		"hungry node while full payloads fly and re-admits it once the mask fits its budget)\n")
	return b.String()
}
