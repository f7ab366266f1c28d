package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
)

// The new-workloads extension: the Fed-Meta-Align-style comparison matrix on
// the two scenarios where fast adaptation is the product — federated
// recommendation (each node a user; the metric post-adaptation rating
// accuracy) and TinyML fault classification (heterogeneous per-device class
// skew and sensor calibration). Four algorithms run on the same federation
// and each is scored on the personalized-vs-global split over held-out
// target nodes:
//
//	fedml     meta-learned initialization, and the arm whose
//	          accuracy/traffic trajectory is recorded ext-codec style
//	fedavg    single global fit, the paper's baseline (core.LocalSGD)
//	fedprox   global fit with the proximal term (core.LocalSGD, μ > 0)
//	repshare  structurally personalized: shared representation, private
//	          heads (core.RepShare)
//
// Every arm runs core.Train, so each has the same traffic accounting and the
// matrix reports wire KiB per arm.
//
// The headline claim the acceptance test pins: FedML's adapted accuracy
// beats the global (un-adapted) accuracy of both FedAvg and FedProx on both
// workloads — single global models cannot express per-node structure that
// one adaptation step recovers.

// ExtWorkloadConfig parameterizes one workload's comparison matrix.
type ExtWorkloadConfig struct {
	Scale Scale
	// Workload selects the scenario: "rec" or "fault".
	Workload string
	// Alpha, Beta are FedML's adaptation and meta rates; Eta the local rate
	// of the non-meta baselines (paper convention: Eta = Beta).
	Alpha, Beta, Eta float64
	// T, T0 are the iteration budget and local steps per round.
	T, T0 int
	// Hidden is the MLP hidden width (a hidden layer is required: repshare
	// needs a non-head representation block to share).
	Hidden int
	// AdaptSteps is the per-node adaptation budget of the personalized
	// column.
	AdaptSteps int
	// Mu is FedProx's proximal coefficient.
	Mu   float64
	Seed uint64
}

// DefaultExtWorkloadConfig returns the matrix configuration for a workload.
func DefaultExtWorkloadConfig(workload string, scale Scale) ExtWorkloadConfig {
	cfg := ExtWorkloadConfig{
		Scale:      scale,
		Workload:   workload,
		Alpha:      0.05,
		Beta:       0.05,
		Eta:        0.05,
		T:          400,
		T0:         10,
		Hidden:     16,
		AdaptSteps: 5,
		Mu:         0.1,
		Seed:       1,
	}
	if scale == ScaleCI {
		cfg.T = 120
	}
	return cfg
}

// ExtWorkloadResult holds the personalization matrix plus the fedml arm's
// accuracy/traffic trajectory.
type ExtWorkloadResult struct {
	Workload string
	// Arms, Pers and KiB are the matrix rows: per algorithm, global vs
	// adapted target accuracy and the run's billed wire traffic.
	Arms []string
	Pers []eval.Personalization
	KiB  []float64
	// AccVsKiB is the fedml arm's adapted accuracy against cumulative wire
	// KiB (ext-codec style).
	AccVsKiB *eval.Series
}

// RunExtWorkload trains the four algorithms on the same workload federation
// and reports each one's personalized-vs-global split. Every arm builds its
// own federation from the shared seed.
func RunExtWorkload(cfg ExtWorkloadConfig) (*ExtWorkloadResult, error) {
	if cfg.Workload != "rec" && cfg.Workload != "fault" {
		return nil, fmt.Errorf("ext-workload: unknown workload %q (want rec or fault)", cfg.Workload)
	}
	build := workload{dataset: cfg.Workload, hidden: cfg.Hidden}.builder(cfg.Scale, cfg.Seed)
	global := func(name string, local core.LocalRule) arm {
		return arm{name: name, build: build, cfg: core.Config{Beta: cfg.Eta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed, Local: local}}
	}
	arms := []arm{
		{
			name:     "fedml",
			cfg:      core.Config{Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed},
			build:    build,
			accuracy: &accuracyProbe{alpha: cfg.Alpha, steps: cfg.AdaptSteps},
		},
		global("fedavg", core.LocalSGD{}),
		global("fedprox", core.LocalSGD{Mu: cfg.Mu}),
		global("repshare", core.RepShare{}),
	}
	runs, err := runArms("ext-"+cfg.Workload, arms)
	if err != nil {
		return nil, err
	}
	res := &ExtWorkloadResult{Workload: cfg.Workload, AccVsKiB: runs[0].accVsKiB}
	res.AccVsKiB.Name = "fedml/raw"
	for i, r := range runs {
		res.Arms = append(res.Arms, arms[i].name)
		// Targets are nodes unseen during training for every arm, so the
		// same split applies: θ as-is (global) vs θ after AdaptSteps local
		// steps on the node's K-shot split (personalized).
		res.Pers = append(res.Pers, eval.PersonalizationN(r.model, r.theta, r.fed.Targets, cfg.Alpha, cfg.AdaptSteps, 0))
		res.KiB = append(res.KiB, float64(r.comm.Bytes)/1024)
	}
	return res, nil
}

// Render implements the printable extension: the fedml accuracy-vs-KiB
// trajectory, then the personalization matrix.
func (r *ExtWorkloadResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: %s workload — personalized vs global accuracy on held-out nodes\n", r.Workload)
	if r.AccVsKiB != nil {
		fmt.Fprintf(&b, "arm %s (KiB -> mean adapted target accuracy, total %.1f KiB)\n", r.AccVsKiB.Name, r.KiB[0])
		b.WriteString(r.AccVsKiB.TSV())
	}
	b.WriteString("arm        global acc   adapted acc   gap       KiB\n")
	for i, name := range r.Arms {
		p := r.Pers[i]
		fmt.Fprintf(&b, "%-10s %-12.4f %-13.4f %+.4f   %.1f\n", name, p.Global, p.Adapted, p.Gap(), r.KiB[i])
	}
	b.WriteString("(global = θ applied unchanged; adapted = after per-node K-shot fine-tuning;\n" +
		"fedml meta-learns for adaptation, repshare personalizes structurally via private heads)\n")
	return b.String()
}
