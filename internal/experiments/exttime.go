package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/tensor"
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
	// Alpha, Beta are the FedML rates; T the iteration budget.
	Alpha, Beta float64
	T           int
	// TargetG is the meta-objective value to reach. Zero selects the
	// target automatically: 5%% above the worst final objective across the
	// T0 runs, so every run crosses it and the comparison is meaningful.
	TargetG float64
	// LocalStepTime models one local meta-iteration's compute cost.
	LocalStepTime time.Duration
	Seed          uint64
}

// DefaultExtTimeConfig returns the experiment configuration.
func DefaultExtTimeConfig(scale Scale) ExtTimeConfig {
	cfg := ExtTimeConfig{
		Scale:         scale,
		T0s:           []int{1, 5, 20},
		Alpha:         0.01,
		Beta:          0.01,
		T:             500,
		LocalStepTime: 2 * time.Millisecond,
		Seed:          8,
	}
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
	fed, err := syntheticFederation(0.5, 0.5, cfg.Scale, 5, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ext-time data: %w", err)
	}
	m := softmaxModel(fed)
	paramBytes := 8 * m.NumParams() // raw []float64 messages

	type point struct {
		iters, rounds int
		g             float64
	}
	for _, t0 := range cfg.T0s {
		if cfg.T%t0 != 0 {
			return nil, fmt.Errorf("ext-time: T=%d not a multiple of T0=%d", cfg.T, t0)
		}
	}
	// One training per T0, on the worker pool into per-cell slots (the
	// worstFinal reduction happens in index order afterwards).
	series := make([][]point, len(cfg.T0s))
	err = par.ForEachErr(0, len(cfg.T0s), func(c int) error {
		t0 := cfg.T0s[c]
		var pts []point
		trainCfg := core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: t0, Seed: cfg.Seed,
			OnRound: func(round, iter int, theta tensor.Vec) {
				pts = append(pts, point{
					iters:  iter,
					rounds: round,
					g:      eval.GlobalMetaObjectiveN(m, fed, cfg.Alpha, theta, 1),
				})
			},
		}
		if _, err := core.Train(m, fed, nil, trainCfg); err != nil {
			return fmt.Errorf("ext-time train T0=%d: %w", t0, err)
		}
		series[c] = pts
		return nil
	})
	if err != nil {
		return nil, err
	}
	worstFinal := 0.0
	for _, pts := range series {
		if final := pts[len(pts)-1].g; final > worstFinal {
			worstFinal = final
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
		for _, p := range series[c] {
			if p.g <= target {
				cross = crossing{iters: p.iters, rounds: p.rounds}
				break
			}
		}
		crossings[t0] = cross
	}

	profiles := core.EdgeProfiles(cfg.LocalStepTime)
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
