package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/core"
)

func TestThm3ShapeAndRender(t *testing.T) {
	res, err := RunThm3(DefaultThm3Config(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no target points")
	}
	for _, p := range res.Points {
		if p.SurrogateDist <= 0 {
			t.Errorf("target %d: surrogate distance %v not positive", p.Target, p.SurrogateDist)
		}
		// The gap can be slightly negative on tiny test sets (sampling
		// noise), but it should not be hugely negative: adapting from the
		// target's own optimum should not be much worse.
		if p.AdaptGap < -0.5 {
			t.Errorf("target %d: adaptation gap %v unreasonably negative", p.Target, p.AdaptGap)
		}
	}
	if res.RankCorrelation < -1 || res.RankCorrelation > 1 {
		t.Errorf("rank correlation %v outside [-1, 1]", res.RankCorrelation)
	}
	out := res.Render()
	if !strings.Contains(out, "Spearman") || !strings.Contains(out, "Theorem 3") {
		t.Errorf("render missing pieces:\n%s", out)
	}
}

func TestSpearmanKnownCases(t *testing.T) {
	perfect := []Thm3Point{
		{SurrogateDist: 1, AdaptGap: 10},
		{SurrogateDist: 2, AdaptGap: 20},
		{SurrogateDist: 3, AdaptGap: 30},
	}
	if got := spearman(perfect); got != 1 {
		t.Errorf("perfect correlation = %v, want 1", got)
	}
	inverted := []Thm3Point{
		{SurrogateDist: 1, AdaptGap: 30},
		{SurrogateDist: 2, AdaptGap: 20},
		{SurrogateDist: 3, AdaptGap: 10},
	}
	if got := spearman(inverted); got != -1 {
		t.Errorf("inverted correlation = %v, want -1", got)
	}
	if got := spearman(perfect[:1]); got != 0 {
		t.Errorf("single point correlation = %v, want 0", got)
	}
	constant := []Thm3Point{
		{SurrogateDist: 1, AdaptGap: 5},
		{SurrogateDist: 2, AdaptGap: 5},
	}
	if got := spearman(constant); got != 0 {
		t.Errorf("degenerate correlation = %v, want 0", got)
	}
}

func TestExtTimeShape(t *testing.T) {
	cfg := DefaultExtTimeConfig(ScaleCI)
	cfg.TargetG = 1.0 // easy target so every run crosses it
	res, err := RunExtTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3*len(cfg.T0s) {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	reached := 0
	for _, c := range res.Cells {
		if c.ItersToTarget > 0 {
			reached++
			if c.Time <= 0 {
				t.Errorf("cell %s/T0=%d reached target with zero time", c.Profile, c.T0)
			}
		}
	}
	if reached == 0 {
		t.Fatal("no run reached the target objective")
	}
	// The paper's §IV claim: slow links prefer larger T0 than fast links.
	slowBest, slowOK := res.BestT0["lora-like"]
	fastBest, fastOK := res.BestT0["datacenter"]
	if slowOK && fastOK && slowBest < fastBest {
		t.Errorf("slow network preferred SMALLER T0 (%d) than fast network (%d)", slowBest, fastBest)
	}
	out := res.Render()
	if !strings.Contains(out, "best T0 per profile") {
		t.Error("render missing summary")
	}
}

func TestExtTimeUnreachedTarget(t *testing.T) {
	cfg := DefaultExtTimeConfig(ScaleCI)
	cfg.T = 20
	cfg.T0s = []int{5}
	cfg.TargetG = 1e-9 // unreachable
	res, err := RunExtTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.ItersToTarget != 0 || c.Time != 0 {
			t.Errorf("unreachable target produced crossing: %+v", c)
		}
	}
	if len(res.BestT0) != 0 {
		t.Errorf("BestT0 populated for unreachable target: %v", res.BestT0)
	}
	if !strings.Contains(res.Render(), "not reached") {
		t.Error("render missing 'not reached'")
	}
}

// TestExtTimeRawPricing pins the message pricing: every cell's modelled time
// is the profile's Estimate at the crossing point with raw 8 B/param
// messages.
func TestExtTimeRawPricing(t *testing.T) {
	cfg := DefaultExtTimeConfig(ScaleCI)
	cfg.T0s = []int{5}
	cfg.TargetG = 1.0 // easy target so the run crosses it
	res, err := RunExtTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := syntheticFederation(0.5, 0.5, cfg.Scale, 5, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rawBytes := 8 * softmaxModel(fed).NumParams()
	profiles := core.EdgeProfiles(cfg.LocalStepTime)
	checked := 0
	for _, c := range res.Cells {
		if c.ItersToTarget == 0 {
			continue
		}
		want, err := profiles[c.Profile].Estimate(core.CommStats{Rounds: c.RoundsToTarget}, c.ItersToTarget, rawBytes)
		if err != nil {
			t.Fatal(err)
		}
		if c.Time != want {
			t.Errorf("%s/T0=%d priced at %v, want %v (%d B messages)", c.Profile, c.T0, c.Time, want, rawBytes)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no cell reached the target; pricing unexercised")
	}
}

func TestExtTimeRejectsBadT0(t *testing.T) {
	cfg := DefaultExtTimeConfig(ScaleCI)
	cfg.T0s = []int{7} // 200 % 7 != 0
	if _, err := RunExtTime(cfg); err == nil {
		t.Error("non-divisor T0 accepted")
	}
}

func TestExtBaselinesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("five training runs are slow")
	}
	res, err := RunExtBaselines(DefaultExtBaselinesConfig(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 5 || len(res.Curves) != 5 || len(res.SourceMeta) != 5 {
		t.Fatalf("expected 5 algorithms, got %d", len(res.Names))
	}
	for i, name := range res.Names {
		c := res.Curves[i]
		if len(c) == 0 {
			t.Fatalf("%s: empty curve", name)
		}
		final := c[len(c)-1].Accuracy
		if final <= 0.2 {
			t.Errorf("%s adapted accuracy %v barely above chance", name, final)
		}
		if res.SourceMeta[i] <= 0 {
			t.Errorf("%s: non-positive source meta objective", name)
		}
	}
	// FedML optimizes the source meta-objective directly; it must achieve
	// the (weakly) best value there among all algorithms.
	for i := 1; i < len(res.Names); i++ {
		if res.SourceMeta[0] > res.SourceMeta[i]+0.05 {
			t.Errorf("FedML source G %.4f materially worse than %s %.4f",
				res.SourceMeta[0], res.Names[i], res.SourceMeta[i])
		}
	}
	out := res.Render()
	for _, want := range []string{"FedML", "FedProx", "Reptile", "source meta-objective"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestExtensionExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		ids[e.ID] = true
	}
	for _, want := range []string{"thm3", "ext-time", "ext-baselines", "ext-energy", "ext-rec", "ext-fault"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

// TestExtEnergyAcceptance pins the experiment's headline claims under the
// lora-like radio: head-only sync lands within 2 accuracy points of full
// sync while spending at least 3× fewer modeled joules, and the budgeted arm
// actually exercises the budget filter (the hungry node sits out the full-
// payload warmup rounds) without losing the adapted accuracy.
func TestExtEnergyAcceptance(t *testing.T) {
	res, err := RunExtEnergy(DefaultExtEnergyConfig(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 3 || res.Arms[0] != "full-sync" || res.Arms[1] != "head-sync" || res.Arms[2] != "head+budget" {
		t.Fatalf("arms = %v", res.Arms)
	}
	for i, name := range res.Arms {
		if len(res.AccVsJoules[i].Points) == 0 || len(res.AccVsKiB[i].Points) == 0 {
			t.Fatalf("%s: empty curve", name)
		}
		if res.TotalJoules[i] <= 0 || res.TotalKiB[i] <= 0 {
			t.Errorf("%s: non-positive totals J=%v KiB=%v", name, res.TotalJoules[i], res.TotalKiB[i])
		}
	}
	full, head, budget := 0, 1, 2
	if gap := res.FinalAcc[full] - res.FinalAcc[head]; gap > 0.02 {
		t.Errorf("head-sync accuracy %.4f more than 2 points below full-sync %.4f",
			res.FinalAcc[head], res.FinalAcc[full])
	}
	if res.TotalJoules[head] > res.TotalJoules[full]/3 {
		t.Errorf("head-sync spent %.0f J, want <= 1/3 of full-sync %.0f J",
			res.TotalJoules[head], res.TotalJoules[full])
	}
	if res.BudgetFiltered[budget] == 0 {
		t.Error("budgeted arm never filtered the hungry node")
	}
	if res.BudgetFiltered[full] != 0 || res.BudgetFiltered[head] != 0 {
		t.Errorf("unbudgeted arms report filtering: %v", res.BudgetFiltered)
	}
	// 5-class task: chance is 0.2; the budgeted run must still adapt well.
	if res.FinalAcc[budget] < 0.5 {
		t.Errorf("budgeted arm accuracy %.4f collapsed", res.FinalAcc[budget])
	}
	// Masked arms must also move fewer wire bytes (the ext-codec axis).
	if res.TotalKiB[head] >= res.TotalKiB[full] {
		t.Errorf("head-sync moved %.0f KiB, full-sync %.0f KiB", res.TotalKiB[head], res.TotalKiB[full])
	}
	out := res.Render()
	for _, want := range []string{"lora-like", "J ratio vs full", "head+budget", "budget-filtered"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestExtEnergyRejectsUnknownProfile covers the config error path.
func TestExtEnergyRejectsUnknownProfile(t *testing.T) {
	cfg := DefaultExtEnergyConfig(ScaleCI)
	cfg.Profile = "5g"
	if _, err := RunExtEnergy(cfg); err == nil {
		t.Error("unknown energy profile accepted")
	}
}

func TestDefaultExtTimeConfigSane(t *testing.T) {
	cfg := DefaultExtTimeConfig(ScalePaper)
	if cfg.T != 500 || cfg.LocalStepTime != 2*time.Millisecond {
		t.Errorf("paper-scale config unexpected: %+v", cfg)
	}
}

func TestExtMetaOptShape(t *testing.T) {
	res, err := RunExtMetaOpt(DefaultExtMetaOptConfig(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for i, s := range res.Curves {
		if len(s.Points) == 0 {
			t.Fatalf("%s: empty curve", s.Name)
		}
		first := s.Points[0].Value
		if res.Finals[i] >= first {
			t.Errorf("%s did not reduce the objective: %v -> %v", s.Name, first, res.Finals[i])
		}
	}
	out := res.Render()
	for _, want := range []string{"sgd", "momentum", "adam", "final objectives"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
