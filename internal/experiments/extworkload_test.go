package experiments

import (
	"strings"
	"testing"
)

// TestExtWorkloadAcceptance pins the new-workloads headline claim on both
// scenarios (the Fed-Meta-Align comparison): FedML's adapted accuracy beats
// the global (un-adapted) accuracy of both FedAvg and FedProx — the per-node
// structure (user taste, device calibration) is invisible to any single
// global model and recovered by K-shot adaptation.
func TestExtWorkloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("eight training runs are slow")
	}
	for _, workload := range []string{"rec", "fault"} {
		res, err := RunExtWorkload(DefaultExtWorkloadConfig(workload, ScaleCI))
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if len(res.Arms) != 4 || res.Arms[0] != "fedml" || res.Arms[1] != "fedavg" ||
			res.Arms[2] != "fedprox" || res.Arms[3] != "repshare" {
			t.Fatalf("%s arms = %v", workload, res.Arms)
		}
		pers := map[string]float64{}
		for i, name := range res.Arms {
			pers[name+"/global"] = res.Pers[i].Global
			pers[name+"/adapted"] = res.Pers[i].Adapted
		}
		if pers["fedml/adapted"] < pers["fedavg/global"] {
			t.Errorf("%s: FedML adapted %.4f below FedAvg global %.4f",
				workload, pers["fedml/adapted"], pers["fedavg/global"])
		}
		if pers["fedml/adapted"] < pers["fedprox/global"] {
			t.Errorf("%s: FedML adapted %.4f below FedProx global %.4f",
				workload, pers["fedml/adapted"], pers["fedprox/global"])
		}
		// The meta-learned initialization must actually benefit from
		// adaptation: a positive personalization gap.
		if res.Pers[0].Gap() <= 0 {
			t.Errorf("%s: FedML personalization gap %.4f not positive", workload, res.Pers[0].Gap())
		}
		if res.AccVsKiB == nil || len(res.AccVsKiB.Points) == 0 {
			t.Fatalf("%s: missing fedml accuracy/traffic trajectory", workload)
		}
		for i, kib := range res.KiB {
			if kib <= 0 {
				t.Errorf("%s: arm %s billed non-positive traffic %.1f KiB", workload, res.Arms[i], kib)
			}
		}
		out := res.Render()
		for _, want := range []string{workload, "global acc", "adapted acc", "fedprox", "repshare", "KiB"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s render missing %q:\n%s", workload, want, out)
			}
		}
	}
}

func TestExtWorkloadRejectsUnknownWorkload(t *testing.T) {
	cfg := DefaultExtWorkloadConfig("images", ScaleCI)
	if _, err := RunExtWorkload(cfg); err == nil {
		t.Error("unknown workload accepted")
	}
}
