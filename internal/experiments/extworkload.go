package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/tensor"
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

// workloadFederation builds the named new-workload federation at scale.
func workloadFederation(workload string, scale Scale, seed uint64) (*data.Federation, error) {
	switch workload {
	case "rec":
		cfg := data.DefaultRecommendConfig()
		cfg.Seed = seed
		if scale == ScaleCI {
			cfg.Users = 20
			cfg.Items = 60
		}
		return data.GenerateRecommend(cfg)
	case "fault":
		cfg := data.DefaultFaultConfig()
		cfg.Seed = seed
		if scale == ScaleCI {
			cfg.Devices = 20
		}
		return data.GenerateFault(cfg)
	default:
		return nil, fmt.Errorf("ext-workload: unknown workload %q (want rec or fault)", workload)
	}
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
// and reports each one's personalized-vs-global split. Arms are independent
// and fan out on the worker pool; every arm rebuilds its own federation from
// the shared seed, so results are bit-identical for every worker count.
func RunExtWorkload(cfg ExtWorkloadConfig) (*ExtWorkloadResult, error) {
	arms := []string{"fedml", "fedavg", "fedprox", "repshare"}
	locals := []core.LocalRule{nil, core.LocalSGD{}, core.LocalSGD{Mu: cfg.Mu}, core.RepShare{}}
	pers := make([]eval.Personalization, len(arms))
	kib := make([]float64, len(arms))
	var accVsKiB *eval.Series
	err := par.ForEachErr(0, len(arms), func(c int) error {
		arm := arms[c]
		fed, err := workloadFederation(cfg.Workload, cfg.Scale, cfg.Seed)
		if err != nil {
			return fmt.Errorf("ext-%s data: %w", cfg.Workload, err)
		}
		m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, cfg.Hidden, fed.NumClasses}, L2: 0.01})
		if err != nil {
			return fmt.Errorf("ext-%s model: %w", cfg.Workload, err)
		}
		trainCfg := core.Config{T: cfg.T, T0: cfg.T0, Seed: cfg.Seed, Local: locals[c]}
		var rec *obs.Recorder
		accByIter := map[int]float64{}
		if arm == "fedml" {
			rec = obs.NewRecorder()
			trainCfg.Alpha, trainCfg.Beta = cfg.Alpha, cfg.Beta
			trainCfg.Observer = rec
			trainCfg.OnRound = func(_, iter int, th tensor.Vec) {
				accs := eval.FinalAccuraciesN(m, th, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 1)
				var s float64
				for _, a := range accs {
					s += a
				}
				accByIter[iter] = s / float64(len(accs))
			}
		} else {
			trainCfg.Beta = cfg.Eta
		}
		res, err := core.Train(m, fed, nil, trainCfg)
		if err != nil {
			return fmt.Errorf("ext-%s train %s: %w", cfg.Workload, arm, err)
		}
		kib[c] = float64(res.Comm.Bytes) / 1024
		if rec != nil {
			curve := &eval.Series{Name: "fedml/raw"}
			for _, p := range eval.TrafficTrajectory("raw", rec.Rounds()).Points {
				if acc, ok := accByIter[p.Iter]; ok {
					curve.Add(int(p.Value/1024), acc)
				}
			}
			accVsKiB = curve
		}
		// Targets are nodes unseen during training for every arm, so the
		// same split applies: θ as-is (global) vs θ after AdaptSteps local
		// steps on the node's K-shot split (personalized).
		pers[c] = eval.PersonalizationN(m, res.Theta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ExtWorkloadResult{
		Workload: cfg.Workload,
		Arms:     arms,
		Pers:     pers,
		KiB:      kib,
		AccVsKiB: accVsKiB,
	}, nil
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
