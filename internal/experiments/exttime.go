package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/edgeai/fedml/internal/core"
)

// The paper motivates the T0 knob by the communication bottleneck of
// wireless edge networks but reports convergence only against iteration
// counts. This extension experiment closes the loop: using the core
// TimeModel, it converts each (T0, network profile) run into estimated
// wall-clock time and reports the modelled time needed to reach a target
// meta-objective value — showing that the best T0 depends on the network, as
// §IV's discussion predicts.

// ExtTimeConfig parameterizes the time-to-target experiment.
type ExtTimeConfig struct {
	Scale Scale
	// T0s are the local-step counts compared.
	T0s []int
	// T is the iteration budget.
	T int
	// TargetG is the meta-objective value to reach. Zero selects the
	// target automatically: 5%% above the worst final objective across the
	// T0 runs, so every run crosses it and the comparison is meaningful.
	TargetG float64
}

// The seed of ext-time's federation, and the modelled compute cost of one
// local meta-iteration.
const (
	extTimeSeed     = 8
	extTimeStepTime = 2 * time.Millisecond
)

// DefaultExtTimeConfig returns the experiment configuration.
func DefaultExtTimeConfig(scale Scale) ExtTimeConfig {
	cfg := ExtTimeConfig{Scale: scale, T0s: []int{1, 5, 20}, T: 500}
	if scale == ScaleCI {
		cfg.T = 200
	}
	return cfg
}

// ExtTimeCell is the modelled time for one (profile, T0) pair.
type ExtTimeCell struct {
	Profile string
	T0      int
	// ItersToTarget is the local-iteration count at which G first dropped
	// below TargetG (0 if never).
	ItersToTarget int
	// RoundsToTarget is the aggregation count at that point.
	RoundsToTarget int
	// Time is the modelled wall-clock to the target (0 if never reached).
	Time time.Duration
}

// ExtTimeResult is the full grid.
type ExtTimeResult struct {
	TargetG float64
	Cells   []ExtTimeCell
	// BestT0 maps each profile to the T0 with the smallest modelled time.
	BestT0 map[string]int
}

// RunExtTime trains FedML once per T0, finds when each run crosses the
// target objective, and prices that point under each network profile.
func RunExtTime(cfg ExtTimeConfig) (*ExtTimeResult, error) {
	const alpha, beta = 0.01, 0.01
	fed, m, err := workload{dataset: "synthetic", ab: 0.5}.build(cfg.Scale, extTimeSeed)
	if err != nil {
		return nil, fmt.Errorf("ext-time: %w", err)
	}
	paramBytes := 8 * m.NumParams() // raw []float64 messages
	probe := &objectiveProbe{alpha: alpha}
	arms := make([]arm, len(cfg.T0s))
	for i, t0 := range cfg.T0s {
		arms[i] = arm{
			name:      fmt.Sprintf("T0=%d", t0),
			cfg:       core.Config{Alpha: alpha, Beta: beta, T: cfg.T, T0: t0, Seed: extTimeSeed},
			build:     shared(fed, m),
			objective: probe,
		}
	}
	runs, err := runArms("ext-time", arms)
	if err != nil {
		return nil, err
	}
	worstFinal := 0.0
	for _, r := range runs {
		if final, _ := r.objective.Last(); final.Value > worstFinal {
			worstFinal = final.Value
		}
	}
	target := cfg.TargetG
	if target <= 0 {
		target = worstFinal * 1.05
	}

	type crossing struct {
		iters, rounds int
	}
	crossings := map[int]crossing{}
	for c, t0 := range cfg.T0s {
		var cross crossing
		for _, p := range runs[c].objective.Points {
			// Strict rounds never skip, so every round advanced θ by T0.
			if p.Value <= target {
				cross = crossing{iters: p.Iter, rounds: p.Iter / t0}
				break
			}
		}
		crossings[t0] = cross
	}

	profiles := core.EdgeProfiles(extTimeStepTime)
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)

	res := &ExtTimeResult{TargetG: target, BestT0: map[string]int{}}
	for _, name := range names {
		tm := profiles[name]
		var bestT0 int
		var bestTime time.Duration
		for _, t0 := range cfg.T0s {
			cross := crossings[t0]
			cell := ExtTimeCell{Profile: name, T0: t0}
			if cross.iters > 0 {
				d, err := tm.Estimate(core.CommStats{Rounds: cross.rounds}, cross.iters, paramBytes)
				if err != nil {
					return nil, fmt.Errorf("ext-time estimate: %w", err)
				}
				cell.ItersToTarget = cross.iters
				cell.RoundsToTarget = cross.rounds
				cell.Time = d
				if bestTime == 0 || d < bestTime {
					bestTime, bestT0 = d, t0
				}
			}
			res.Cells = append(res.Cells, cell)
		}
		if bestT0 != 0 {
			res.BestT0[name] = bestT0
		}
	}
	return res, nil
}

// Render implements the printable experiment.
func (r *ExtTimeResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: modelled wall-clock to reach G(θ) ≤ %.2f, by T0 and network profile\n", r.TargetG)
	fmt.Fprintf(&b, "%-12s %-6s %-8s %-8s %-14s\n", "profile", "T0", "iters", "rounds", "time")
	for _, c := range r.Cells {
		if c.ItersToTarget == 0 {
			fmt.Fprintf(&b, "%-12s %-6d %-8s %-8s %-14s\n", c.Profile, c.T0, "-", "-", "not reached")
			continue
		}
		fmt.Fprintf(&b, "%-12s %-6d %-8d %-8d %-14s\n", c.Profile, c.T0, c.ItersToTarget, c.RoundsToTarget, c.Time)
	}
	b.WriteString("best T0 per profile:")
	names := make([]string, 0, len(r.BestT0))
	for name := range r.BestT0 {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %s: T0=%d", name, r.BestT0[name])
	}
	b.WriteString("\n(slow links favour large T0; fast links favour frequent aggregation — §IV)\n")
	return b.String()
}
