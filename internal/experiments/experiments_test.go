package experiments

import (
	"strings"
	"testing"
)

func TestTable1CIScale(t *testing.T) {
	res, err := RunTable1(Table1Config{Scale: ScaleCI})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Nodes <= 0 || row.Mean <= 0 {
			t.Errorf("degenerate row %+v", row)
		}
	}
	out := res.Render()
	for _, want := range []string{"Synthetic", "MNIST", "Sent140", "Table I"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig2aShapeNodeSimilarity(t *testing.T) {
	cfg := DefaultFig2aConfig(ScaleCI)
	res, err := RunFig2a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	// Every curve must actually converge: final error well below initial.
	for _, s := range res.Curves {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Value >= first.Value {
			t.Errorf("%s did not converge: %v -> %v", s.Name, first.Value, last.Value)
		}
	}
	// Paper shape: the most heterogeneous dataset has the largest final
	// convergence error (compare the extremes, which the paper emphasizes).
	if res.FinalErrors[2] <= res.FinalErrors[0] {
		t.Errorf("convergence error did not grow with dissimilarity: %v", res.FinalErrors)
	}
	if !strings.Contains(res.Render(), "Figure 2(a)") {
		t.Error("render missing title")
	}
}

func TestFig2bShapeLocalSteps(t *testing.T) {
	cfg := DefaultFig2bConfig(ScaleCI)
	res, err := RunFig2b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != len(cfg.T0s) {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	// Paper shape: with the iteration budget fixed, larger T0 leaves a
	// larger final error (compare T0=1 against T0=20).
	smallest, largest := res.FinalErrors[0], res.FinalErrors[len(res.FinalErrors)-1]
	if largest <= smallest {
		t.Errorf("final error did not grow with T0: %v", res.FinalErrors)
	}
	if !strings.Contains(res.Render(), "T0=20") {
		t.Error("render missing T0=20 series")
	}
}

func TestFig3aSent140Converges(t *testing.T) {
	res, err := RunFig3a(DefaultFig3aConfig(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Curve.Points
	if len(pts) == 0 {
		t.Fatal("no points tracked")
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.Value >= first.Value {
		t.Errorf("Sent140 objective did not decrease: %v -> %v", first.Value, last.Value)
	}
	if !strings.Contains(res.Render(), "Sent140") {
		t.Error("render missing dataset name")
	}
}

func TestFig3bShapeTargetSimilarity(t *testing.T) {
	res, err := RunFig3b(DefaultFig3bConfig(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	// Paper shape: adaptation works best when source and target are most
	// similar — Synthetic(0,0) beats Synthetic(1,1).
	if res.FinalAccuracies[0] <= res.FinalAccuracies[2] {
		t.Errorf("similar tasks did not adapt better: %v", res.FinalAccuracies)
	}
	// Adaptation must help on the most similar dataset: accuracy after
	// adaptation above the un-adapted baseline.
	c := res.Curves[0]
	if c[len(c)-1].Accuracy <= c[0].Accuracy {
		t.Errorf("adaptation did not improve accuracy on Synthetic(0,0): %v -> %v",
			c[0].Accuracy, c[len(c)-1].Accuracy)
	}
}

func TestFig3cAdaptCompareStructure(t *testing.T) {
	res, err := RunAdaptCompare(DefaultAdaptCompareConfig("synthetic", ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FedML) != len(res.Ks) || len(res.FedAvg) != len(res.Ks) {
		t.Fatal("missing curves")
	}
	// Structural checks. (The paper reports FedML strictly above FedAvg
	// here; under deterministic full-batch fine-tuning with matched rates
	// the two are statistically indistinguishable at the target on this
	// generator — see EXPERIMENTS.md "Deviations" — so the test asserts
	// that fast adaptation works and that FedML is competitive, not that it
	// strictly wins.)
	for i := range res.Ks {
		ml := res.FedML[i]
		avg := res.FedAvg[i]
		if last := ml[len(ml)-1].Accuracy; last <= 0.3 {
			t.Errorf("K=%d: FedML adapted accuracy %v barely above chance", res.Ks[i], last)
		}
		if ml[len(ml)-1].Accuracy <= ml[0].Accuracy {
			t.Errorf("K=%d: adaptation did not improve FedML accuracy (%v -> %v)",
				res.Ks[i], ml[0].Accuracy, ml[len(ml)-1].Accuracy)
		}
		if diff := ml[len(ml)-1].Accuracy - avg[len(avg)-1].Accuracy; diff < -0.1 {
			t.Errorf("K=%d: FedML materially worse than FedAvg after adaptation (diff %v)", res.Ks[i], diff)
		}
	}
	if len(res.Bootstrap) != len(res.Ks) {
		t.Errorf("bootstrap results = %d, want %d", len(res.Bootstrap), len(res.Ks))
	}
	for i, bs := range res.Bootstrap {
		if bs.Lo > bs.Hi {
			t.Errorf("K=%d: inverted CI [%v, %v]", res.Ks[i], bs.Lo, bs.Hi)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "FedML K=") {
		t.Error("render missing series names")
	}
	if !strings.Contains(out, "paired bootstrap") {
		t.Error("render missing bootstrap line")
	}
}

func TestFig3dMNISTRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("MNIST adaptation comparison is slow")
	}
	cfg := DefaultAdaptCompareConfig("mnist", ScaleCI)
	cfg.T = 60
	cfg.Ks = []int{5}
	res, err := RunAdaptCompare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ml := res.FedML[0]
	if ml[len(ml)-1].Accuracy <= 0.2 {
		t.Errorf("FedML MNIST adaptation accuracy %v barely above chance", ml[len(ml)-1].Accuracy)
	}
}

func TestFig3eSent140Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("Sent140 adaptation comparison is slow")
	}
	cfg := DefaultAdaptCompareConfig("sent140", ScaleCI)
	cfg.T = 30
	cfg.Ks = []int{5}
	res, err := RunAdaptCompare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FedML[0]) != 11 {
		t.Error("unexpected curve length, want step 0 and 10 adaptation steps")
	}
}

func TestFig4ShapeRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("robust training sweep is slow")
	}
	res, err := RunFig4(DefaultFig4Config(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	// Models: FedML + one per λ (CI uses λ ∈ {0.1, 10}).
	if len(res.Names) != 3 {
		t.Fatalf("models = %v", res.Names)
	}
	// Paper shape: the most robust model (smallest λ, index 1) beats plain
	// FedML (index 0) on adversarial data after adaptation, without
	// collapsing on clean data.
	adv01 := res.Adv[1]
	advPlain := res.Adv[0]
	if adv01[len(adv01)-1].Accuracy <= advPlain[len(advPlain)-1].Accuracy {
		t.Errorf("Robust λ=0.01 (%v) did not beat FedML (%v) on adversarial data",
			adv01[len(adv01)-1].Accuracy, advPlain[len(advPlain)-1].Accuracy)
	}
	clean01 := res.Clean[1]
	cleanPlain := res.Clean[0]
	if clean01[len(clean01)-1].Accuracy < cleanPlain[len(cleanPlain)-1].Accuracy-0.1 {
		t.Errorf("Robust λ=0.01 sacrificed too much clean accuracy: %v vs %v",
			clean01[len(clean01)-1].Accuracy, cleanPlain[len(cleanPlain)-1].Accuracy)
	}
	out := res.Render()
	for _, want := range []string{"Panel (a)", "Panel (d)", "Robust λ=0.01"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig4eShapeImprovementGrowsWithXi(t *testing.T) {
	if testing.Short() {
		t.Skip("robust training sweep is slow")
	}
	res, err := RunFig4e(DefaultFig4eConfig(ScaleCI))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Improvement) != 2 {
		t.Fatalf("points = %d", len(res.Improvement))
	}
	// Paper shape: the robust model's edge grows with attack strength
	// (within the trained radius, see EXPERIMENTS.md).
	if res.Improvement[1] <= 0 {
		t.Errorf("no robustness improvement at large ξ: %v", res.Improvement)
	}
	if res.Improvement[1] < res.Improvement[0]-0.02 {
		t.Errorf("improvement shrank with ξ: %v", res.Improvement)
	}
	if !strings.Contains(res.Render(), "improvement") {
		t.Error("render missing header")
	}
}

func TestRegistryRunsEveryExperimentID(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig4", "fig4e"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", ScaleCI); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRunTable1ByID(t *testing.T) {
	out, err := Run("table1", ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table I") {
		t.Error("render wrong")
	}
}

func TestScaleString(t *testing.T) {
	if ScaleCI.String() != "ci" || ScalePaper.String() != "paper" || Scale(9).String() != "Scale(9)" {
		t.Error("Scale String broken")
	}
}
