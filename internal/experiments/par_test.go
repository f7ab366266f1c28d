package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/rng"
)

// estimateGStar's normal path returns a finite reference value and no error.
func TestEstimateGStarNormalPath(t *testing.T) {
	fed, err := syntheticFederation(0.5, 0.5, ScaleCI, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := softmaxModel(fed)
	gStar, err := estimateGStar(m, fed, 0.01, 0.01, 50, 1)
	if err != nil {
		t.Fatalf("normal path returned error: %v", err)
	}
	init := eval.GlobalMetaObjectiveN(m, fed, 0.01, m.InitParams(rng.New(99)), 1)
	if gStar >= init {
		t.Errorf("reference run did not improve on initialization: G* = %v, init = %v", gStar, init)
	}
}

// When the reference run diverges, estimateGStar must fall back to the
// initialization objective AND report the failure — the old code swallowed
// it, making a diverged baseline indistinguishable from a converged one.
func TestEstimateGStarFallbackReportsError(t *testing.T) {
	fed, err := syntheticFederation(0.5, 0.5, ScaleCI, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := softmaxModel(fed)
	// A NaN meta rate slips past the lower clamp (NaN < 0.05 is false) and
	// poisons θ on the first SGD step, so the reference run reliably fails.
	gStar, gErr := estimateGStar(m, fed, 0.01, math.NaN(), 20, 1)
	if gErr == nil {
		t.Fatal("diverged reference run reported no error")
	}
	if !strings.Contains(gErr.Error(), "falling back to initialization objective") {
		t.Errorf("error does not describe the fallback: %v", gErr)
	}
	want := eval.GlobalMetaObjectiveN(m, fed, 0.01, m.InitParams(rng.New(99)), 1)
	if gStar != want {
		t.Errorf("fallback value = %v, want initialization objective %v", gStar, want)
	}
}

// A degraded G* baseline must be visible in the rendered figure, and a clean
// run must not carry a warning banner.
func TestFig2aRendersGStarWarning(t *testing.T) {
	clean := Fig2aConfig{
		Scale:        ScaleCI,
		Similarities: []float64{0.5},
		Alpha:        0.01,
		Beta:         0.01,
		T:            20,
		T0:           10,
		Seed:         1,
	}
	res, err := RunFig2a(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("clean run produced warnings: %v", res.Warnings)
	}
	if strings.Contains(res.Render(), "WARNING") {
		t.Error("clean render contains a warning banner")
	}
	res.Warnings = append(res.Warnings, "Synthetic(0.5,0.5): G* reference run failed")
	if out := res.Render(); !strings.Contains(out, "WARNING: Synthetic(0.5,0.5): G* reference run failed") {
		t.Errorf("warning not rendered:\n%s", out)
	}
}

// Experiment output must be byte-identical across worker counts. This is the
// end-to-end determinism check over the whole pipeline: data generation,
// training, evaluation, bootstrap, and rendering. The experiments fan out
// over GOMAXPROCS workers, so each runs at GOMAXPROCS 1 and then 8, one
// after the other: the setting is process-wide.
func TestExperimentsWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment comparison")
	}
	fig2a := Fig2aConfig{
		Scale:        ScaleCI,
		Similarities: []float64{0, 1},
		Alpha:        0.01,
		Beta:         0.01,
		T:            40,
		T0:           10,
		Seed:         1,
	}
	metaOpt := DefaultExtMetaOptConfig(ScaleCI)
	metaOpt.Iters = 30
	for _, tc := range []struct {
		name string
		run  func() (Renderable, error)
	}{
		{"table1", func() (Renderable, error) { return RunTable1(Table1Config{Scale: ScaleCI, Seed: 1}) }},
		{"fig2a", func() (Renderable, error) { return RunFig2a(fig2a) }},
		{"ext-meta-opt", func() (Renderable, error) { return RunExtMetaOpt(metaOpt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			ref, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(8)
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if ref.Render() != got.Render() {
				t.Errorf("%s output differs between GOMAXPROCS=1 and GOMAXPROCS=8:\n%s\n---\n%s", tc.name, ref.Render(), got.Render())
			}
		})
	}
}
