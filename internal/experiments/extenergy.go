package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/tensor"
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

// extEnergyCell is one arm's output slot.
type extEnergyCell struct {
	joules   *eval.Series
	kib      *eval.Series
	totalJ   float64
	totalKiB float64
	acc      float64
	filtered int
}

// joulesByRound folds an event stream into cumulative fleet joules at each
// round boundary, pricing from the node's perspective: a broadcast or probe
// is received (rx), a delivered update was transmitted (tx) after t0 local
// iterations of compute. scale multiplies per-node costs (nil = 1).
func joulesByRound(events []obs.Event, em core.EnergyModel, scale []float64) map[int]float64 {
	nodeScale := func(i int) float64 {
		if scale == nil || i >= len(scale) {
			return 1
		}
		return scale[i]
	}
	cum := map[int]float64{}
	total := 0.0
	t0 := 0
	for _, e := range events {
		switch e.Type {
		case obs.TypeRoundStart:
			t0 = e.T0
		case obs.TypeBroadcast, obs.TypeProbe:
			total += nodeScale(e.Node) * em.RoundJoules(e.Bytes, 0, 0)
		case obs.TypeUpdate:
			total += nodeScale(e.Node) * em.RoundJoules(0, e.Bytes, t0)
		case obs.TypeRoundEnd, obs.TypeRoundSkip:
			cum[e.Round] = total
		}
	}
	return cum
}

// RunExtEnergy trains the same federation under each sync policy and reports
// adapted accuracy against the modeled energy spent to reach it.
func RunExtEnergy(cfg ExtEnergyConfig) (*ExtEnergyResult, error) {
	profiles := core.EnergyProfiles(cfg.ComputeJPerIter)
	em, ok := profiles[cfg.Profile]
	if !ok {
		return nil, fmt.Errorf("ext-energy: unknown energy profile %q", cfg.Profile)
	}
	arms := []string{"full-sync", "head-sync", "head+budget"}
	cells := make([]extEnergyCell, len(arms))
	err := par.ForEachErr(0, len(arms), func(c int) error {
		arm := arms[c]
		fed, err := syntheticFederation(0.5, 0.5, cfg.Scale, 5, cfg.Seed)
		if err != nil {
			return fmt.Errorf("ext-energy data: %w", err)
		}
		m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, cfg.Hidden, fed.NumClasses}, L2: 0.01})
		if err != nil {
			return fmt.Errorf("ext-energy model: %w", err)
		}
		rec := obs.NewRecorder()
		accByIter := map[int]float64{}
		trainCfg := core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
			Observer: rec,
			Energy:   &em,
			OnRound: func(_, iter int, theta tensor.Vec) {
				accs := eval.FinalAccuraciesN(m, theta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 1)
				var s float64
				for _, a := range accs {
					s += a
				}
				accByIter[iter] = s / float64(len(accs))
			},
		}
		var scale []float64
		if arm != "full-sync" {
			mask, err := core.ResolveSyncMask(fmt.Sprintf("head:%d", cfg.Warmup), m)
			if err != nil {
				return fmt.Errorf("ext-energy mask: %w", err)
			}
			trainCfg.SyncMask = mask
		}
		if arm == "head+budget" {
			// The modeled full-sync round cost of an unscaled node prices the
			// budget; the hungry node only fits under the mask discount.
			fullBytes := int64(8 * m.NumParams())
			budget := 2 * em.RoundJoules(fullBytes, fullBytes, cfg.T0)
			scale = make([]float64, len(fed.Sources))
			for i := range scale {
				scale[i] = 1
			}
			scale[len(scale)-1] = cfg.HungryScale
			trainCfg.EnergyBudget = budget
			trainCfg.EnergyScale = scale
		}
		res, err := core.Train(m, fed, nil, trainCfg)
		if err != nil {
			return fmt.Errorf("ext-energy train %s: %w", arm, err)
		}
		// Join the accuracy probe with the energy and traffic bills on the
		// shared round/iteration axes.
		cumJ := joulesByRound(rec.Events(), em, scale)
		jCurve := &eval.Series{Name: arm}
		kCurve := &eval.Series{Name: arm}
		for _, r := range rec.Rounds() {
			acc, ok := accByIter[r.Iter]
			if !ok {
				continue
			}
			jCurve.Add(int(cumJ[r.Round]), acc)
			kCurve.Add(int(r.Cum.Bytes/1024), acc)
		}
		cells[c] = extEnergyCell{
			joules:   jCurve,
			kib:      kCurve,
			totalKiB: float64(res.Comm.Bytes) / 1024,
			filtered: res.Comm.BudgetFiltered,
		}
		if last, ok := jCurve.Last(); ok {
			cells[c].totalJ = float64(last.Iter)
			cells[c].acc = last.Value
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &ExtEnergyResult{Profile: cfg.Profile, Arms: arms}
	for _, cell := range cells {
		res.AccVsJoules = append(res.AccVsJoules, cell.joules)
		res.AccVsKiB = append(res.AccVsKiB, cell.kib)
		res.TotalJoules = append(res.TotalJoules, cell.totalJ)
		res.TotalKiB = append(res.TotalKiB, cell.totalKiB)
		res.FinalAcc = append(res.FinalAcc, cell.acc)
		res.BudgetFiltered = append(res.BudgetFiltered, cell.filtered)
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
