package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/par"
)

// Theorem 3 bounds the target's post-adaptation optimality gap by (among
// sample-size terms) the surrogate difference ‖θ*_t − θ*_c‖: how far the
// target task's own optimum sits from the meta-learned optimum. The paper
// proves the bound but shows no figure for it; this extension experiment
// measures both sides across held-out target nodes and checks the implied
// monotone relationship — targets whose tasks sit farther from the
// federation adapt worse.

// Thm3Config parameterizes the experiment.
type Thm3Config struct {
	Scale Scale
	// AlphaBeta is the Synthetic similarity level.
	AlphaBeta float64
	// Alpha, Beta are the FedML rates.
	Alpha, Beta float64
	T, T0       int
	// OptSteps is the gradient budget used to approximate each target's own
	// optimum θ*_t.
	OptSteps int
	Seed     uint64
}

// DefaultThm3Config returns the experiment configuration.
func DefaultThm3Config(scale Scale) Thm3Config {
	cfg := Thm3Config{
		Scale:     scale,
		AlphaBeta: 1, // heterogeneous: spreads the surrogate distances
		Alpha:     0.05,
		Beta:      0.01,
		T:         300,
		T0:        5,
		OptSteps:  400,
		Seed:      6,
	}
	if scale == ScaleCI {
		cfg.T = 100
		cfg.OptSteps = 200
	}
	return cfg
}

// Thm3Point is one target node's measurement.
type Thm3Point struct {
	// Target is the node index.
	Target int
	// SurrogateDist approximates ‖θ*_t − θ_c‖.
	SurrogateDist float64
	// AdaptGap is L_t(φ_t) − L_t(φ*_t): the excess test loss of one-step
	// adaptation from the meta-model over adaptation from the target's own
	// optimum.
	AdaptGap float64
}

// Thm3Result holds the per-target scatter and its rank correlation.
type Thm3Result struct {
	Points []Thm3Point
	// RankCorrelation is the Spearman correlation between surrogate
	// distance and adaptation gap; Theorem 3 implies it should be positive.
	RankCorrelation float64
}

// RunThm3 trains FedML, approximates every target's own optimum by direct
// gradient descent on its full local data, and compares adaptation from the
// meta-model against adaptation from the target optimum.
func RunThm3(cfg Thm3Config) (*Thm3Result, error) {
	runs, err := runArms("thm3", []arm{{
		name:  "FedML",
		cfg:   core.Config{Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed},
		build: workload{dataset: "synthetic", ab: cfg.AlphaBeta}.builder(cfg.Scale, cfg.Seed),
	}})
	if err != nil {
		return nil, err
	}
	fed, m, thetaC := runs[0].fed, runs[0].model, runs[0].theta

	// Targets are independent; measure them on the worker pool into index
	// slots (θ_c is read-only during the fan-out).
	res := &Thm3Result{Points: make([]Thm3Point, len(fed.Targets))}
	par.ForEach(0, len(fed.Targets), func(ti int) {
		node := fed.Targets[ti]
		all := node.All()
		// θ*_t: the target's own (regularized) optimum on its full data.
		thetaT := meta.Adapt(m, thetaC, all, cfg.Alpha, cfg.OptSteps)

		// One-step adaptation from the meta-model vs from θ*_t, both
		// evaluated on the target's test split (L*_t stand-in).
		phiC := meta.Adapt(m, thetaC, node.Train, cfg.Alpha, 1)
		phiT := meta.Adapt(m, thetaT, node.Train, cfg.Alpha, 1)
		gap := nn.Loss(m, phiC, node.Test) - nn.Loss(m, phiT, node.Test)

		res.Points[ti] = Thm3Point{
			Target:        ti,
			SurrogateDist: thetaT.Dist(thetaC),
			AdaptGap:      gap,
		}
	})
	res.RankCorrelation = spearman(res.Points)
	return res, nil
}

// spearman computes the Spearman rank correlation between surrogate
// distance and adaptation gap.
func spearman(points []Thm3Point) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	rankOf := func(value func(Thm3Point) float64) []float64 {
		ranks := make([]float64, n)
		for i := range points {
			r := 0
			for j := range points {
				if value(points[j]) < value(points[i]) {
					r++
				}
			}
			ranks[i] = float64(r)
		}
		return ranks
	}
	rx := rankOf(func(p Thm3Point) float64 { return p.SurrogateDist })
	ry := rankOf(func(p Thm3Point) float64 { return p.AdaptGap })
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i] / float64(n)
		my += ry[i] / float64(n)
	}
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		cov += (rx[i] - mx) * (ry[i] - my)
		vx += (rx[i] - mx) * (rx[i] - mx)
		vy += (ry[i] - my) * (ry[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Render implements the printable experiment.
func (r *Thm3Result) Render() string {
	var b strings.Builder
	b.WriteString("Theorem 3 (extension): target adaptation gap vs surrogate distance ‖θ*_t − θ_c‖\n")
	fmt.Fprintf(&b, "%-8s %-16s %-16s\n", "target", "‖θ*_t − θ_c‖", "adaptation gap")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8d %-16.4f %-16.4f\n", p.Target, p.SurrogateDist, p.AdaptGap)
	}
	fmt.Fprintf(&b, "Spearman rank correlation: %.3f (Theorem 3 implies positive)\n", r.RankCorrelation)
	return b.String()
}
