package theory

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func TestValidate(t *testing.T) {
	good := Constants{Mu: 1, H: 2, Rho: 1, B: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Constants{
		{Mu: 0, H: 1},
		{Mu: 2, H: 1},
		{Mu: 1, H: 2, Rho: -1},
		{Mu: 1, H: 2, B: -1},
		{Mu: 1, H: 2, Delta: -1},
		{Mu: 1, H: 2, C: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad constants %d accepted", i)
		}
	}
}

func TestMaxAlpha(t *testing.T) {
	c := Constants{Mu: 1, H: 2, Rho: 1, B: 2}
	// min{1/(2·2+2), 1} = 1/6.
	if got := c.MaxAlpha(); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("MaxAlpha = %v, want 1/6", got)
	}
}

func TestLemma1Formulas(t *testing.T) {
	c := Constants{Mu: 1, H: 2, Rho: 0.5, B: 1}
	alpha := 0.1
	cv, err := c.Lemma1(alpha)
	if err != nil {
		t.Fatal(err)
	}
	wantMu := 1*(1-0.2)*(1-0.2) - 0.1*0.5*1 // 0.64 − 0.05
	wantH := 2*(1-0.1)*(1-0.1) + 0.1*0.5*1  // 1.62 + 0.05
	if math.Abs(cv.MuPrime-wantMu) > 1e-12 || math.Abs(cv.HPrime-wantH) > 1e-12 {
		t.Errorf("Lemma1 = %+v, want μ′=%v H′=%v", cv, wantMu, wantH)
	}
}

func TestLemma1RejectsInadmissibleAlpha(t *testing.T) {
	c := Constants{Mu: 1, H: 2}
	if _, err := c.Lemma1(0); err == nil {
		t.Error("α=0 accepted")
	}
	if _, err := c.Lemma1(10); err == nil {
		t.Error("huge α accepted")
	}
}

// TestLemma1HoldsOnQuadratics validates Lemma 1 numerically: for the
// quadratic loss L(θ) = ½(θ−c)ᵀA(θ−c) with diagonal A, the meta-objective
// G(θ) = L(φ(θ)) has exact Hessian eigenvalues aᵢ(1−αaᵢ)², all of which must
// lie inside [μ′, H′] (here ρ = 0 exactly).
func TestLemma1HoldsOnQuadratics(t *testing.T) {
	r := rng.New(1)
	check := func(seed uint8) bool {
		rr := r.Split(uint64(seed))
		dim := 2 + rr.IntN(6)
		eigs := make([]float64, dim)
		mu, h := math.Inf(1), 0.0
		for i := range eigs {
			eigs[i] = 0.5 + 2*rr.Float64()
			mu = math.Min(mu, eigs[i])
			h = math.Max(h, eigs[i])
		}
		c := Constants{Mu: mu, H: h}
		alpha := c.MaxAlpha() * (0.2 + 0.7*rr.Float64())
		cv, err := c.Lemma1(alpha)
		if err != nil {
			return false
		}
		for _, a := range eigs {
			g := a * (1 - alpha*a) * (1 - alpha*a)
			if g < cv.MuPrime-1e-12 || g > cv.HPrime+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestMetaDissimilarity(t *testing.T) {
	c := Constants{Mu: 1, H: 2, B: 3, Delta: 0.5, Sigma: 0.2, Tau: 0.1}
	// δ + αC(Hδ + Bσ + τ) with C=2: 0.5 + 0.1·2·(1 + 0.6 + 0.1) = 0.84.
	if got := c.MetaDissimilarity(0.1); math.Abs(got-0.84) > 1e-12 {
		t.Errorf("MetaDissimilarity = %v, want 0.84", got)
	}
	// Identical nodes ⇒ zero dissimilarity regardless of α.
	same := Constants{Mu: 1, H: 2, B: 3}
	if same.MetaDissimilarity(0.1) != 0 {
		t.Error("zero-dissimilarity case broken")
	}
}

func TestHFuncProperties(t *testing.T) {
	const ap, beta, hp = 0.3, 0.05, 2.0
	if got := hFunc(ap, beta, hp, 0); math.Abs(got) > 1e-12 {
		t.Errorf("h(0) = %v, want 0", got)
	}
	if got := hFunc(ap, beta, hp, 1); math.Abs(got) > 1e-12 {
		t.Errorf("h(1) = %v, want 0 (Corollary 1)", got)
	}
	prev := 0.0
	for x := 1; x <= 50; x++ {
		cur := hFunc(ap, beta, hp, x)
		if cur < prev-1e-12 {
			t.Fatalf("h not increasing at %d: %v < %v", x, cur, prev)
		}
		prev = cur
	}
	// h scales linearly with α′ (hence with δ): doubling dissimilarity
	// doubles the penalty.
	if got := hFunc(2*ap, beta, hp, 10); math.Abs(got-2*hFunc(ap, beta, hp, 10)) > 1e-9 {
		t.Error("h not linear in α′")
	}
}

func TestConvergenceBoundStructure(t *testing.T) {
	c := Constants{Mu: 1, H: 2, Delta: 0.1, B: 1}
	alpha := c.MaxAlpha() / 2
	cv, err := c.Lemma1(alpha)
	if err != nil {
		t.Fatal(err)
	}
	beta := cv.MaxBeta() / 4

	b, err := ConvergenceBound(c, Schedule{Alpha: alpha, Beta: beta, T: 100, T0: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Xi <= 0 || b.Xi >= 1 {
		t.Errorf("ξ = %v outside (0,1)", b.Xi)
	}
	if b.Floor <= 0 {
		t.Errorf("floor = %v, want positive with T0>1 and δ>0", b.Floor)
	}
	if b.Total < b.Floor {
		t.Error("total below floor")
	}

	// Corollary 1: T0 = 1 removes the floor entirely.
	b1, err := ConvergenceBound(c, Schedule{Alpha: alpha, Beta: beta, T: 100, T0: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Floor != 0 {
		t.Errorf("T0=1 floor = %v, want 0", b1.Floor)
	}

	// The floor grows with T0 at fixed T (Theorem 2 discussion).
	b20, err := ConvergenceBound(c, Schedule{Alpha: alpha, Beta: beta, T: 100, T0: 20}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b20.Floor <= b.Floor {
		t.Errorf("floor did not grow with T0: %v vs %v", b20.Floor, b.Floor)
	}

	// The floor grows with dissimilarity δ.
	c2 := c
	c2.Delta = 0.5
	bBig, err := ConvergenceBound(c2, Schedule{Alpha: alpha, Beta: beta, T: 100, T0: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bBig.Floor <= b.Floor {
		t.Errorf("floor did not grow with δ: %v vs %v", bBig.Floor, b.Floor)
	}

	// The transient term shrinks with T.
	bLong, err := ConvergenceBound(c, Schedule{Alpha: alpha, Beta: beta, T: 1000, T0: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bLong.Total >= b.Total {
		t.Errorf("bound did not shrink with T: %v vs %v", bLong.Total, b.Total)
	}
}

func TestConvergenceBoundRejections(t *testing.T) {
	c := Constants{Mu: 1, H: 2, Delta: 0.1, B: 1}
	alpha := c.MaxAlpha() / 2
	if _, err := ConvergenceBound(c, Schedule{Alpha: alpha, Beta: 100, T: 10, T0: 5}, 1); !errors.Is(err, ErrInadmissible) {
		t.Errorf("huge β: err = %v, want ErrInadmissible", err)
	}
	if _, err := ConvergenceBound(c, Schedule{Alpha: alpha, Beta: 0.01, T: 10, T0: 3}, 1); err == nil {
		t.Error("T not multiple of T0 accepted")
	}
	if _, err := ConvergenceBound(c, Schedule{Alpha: alpha, Beta: 0.01, T: 10, T0: 5}, -1); err == nil {
		t.Error("negative gap accepted")
	}
}

// TestTheorem2BoundHoldsOnFederatedQuadratics simulates the exact federated
// meta-learning dynamics on quadratic losses with identical curvature A=aI
// but node-specific centers, where every constant of Assumptions 1–4 is
// available in closed form (ρ=0, σ=τ=0, δᵢ = a‖cᵢ−c̄‖), and checks the
// measured optimality gap never exceeds the Theorem 2 bound.
func TestTheorem2BoundHoldsOnFederatedQuadratics(t *testing.T) {
	r := rng.New(42)
	const (
		dim   = 4
		nodes = 5
		a     = 1.0 // isotropic curvature: μ = H = a
		alpha = 0.2 // admissible: MaxAlpha = μ/(2μH) = 0.5
		beta  = 0.1
		T     = 200
		T0    = 10
	)

	// Node centers and the weighted mean.
	centers := make([]tensor.Vec, nodes)
	for i := range centers {
		c := tensor.NewVec(dim)
		for j := range c {
			c[j] = r.Norm()
		}
		centers[i] = c
	}
	w := 1.0 / nodes
	cbar := tensor.NewVec(dim)
	for _, c := range centers {
		cbar.Axpy(w, c)
	}

	// Meta-objective pieces: G_i(θ) = ½ q ‖θ−cᵢ‖², q = a(1−αa)².
	q := a * (1 - alpha*a) * (1 - alpha*a)
	gVal := func(theta tensor.Vec) float64 {
		var total float64
		for _, c := range centers {
			d := theta.Dist(c)
			total += w * 0.5 * q * d * d
		}
		return total
	}
	gStar := gVal(cbar) // θ* = c̄ by symmetry

	// Simulate Algorithm 1 exactly: T0 local steps of θᵢ ← θᵢ − βq(θᵢ−cᵢ),
	// then weighted averaging.
	theta := tensor.NewVec(dim)
	theta.Fill(3) // far initialization
	initialGap := gVal(theta) - gStar
	var trajB float64
	for round := 0; round < T/T0; round++ {
		locals := make([]tensor.Vec, nodes)
		for i := range locals {
			ti := theta.Clone()
			for s := 0; s < T0; s++ {
				// Track the gradient-norm bound B along the trajectory:
				// ∇L_i(φ) with ‖∇L_i(θ)‖ = a‖θ−cᵢ‖ ≥ needed sup.
				gn := a * ti.Dist(centers[i])
				if gn > trajB {
					trajB = gn
				}
				g := ti.Clone()
				g.SubInPlace(centers[i])
				ti.Axpy(-beta*q, g)
			}
			locals[i] = ti
		}
		theta.Zero()
		for _, ti := range locals {
			theta.Axpy(w, ti)
		}
	}
	measuredGap := gVal(theta) - gStar

	// Exact constants.
	var delta float64
	for _, c := range centers {
		delta += w * a * c.Dist(cbar)
	}
	consts := Constants{Mu: a, H: a, B: trajB, Delta: delta}
	bound, err := ConvergenceBound(consts, Schedule{Alpha: alpha, Beta: beta, T: T, T0: T0}, initialGap)
	if err != nil {
		t.Fatal(err)
	}
	if measuredGap > bound.Total {
		t.Errorf("Theorem 2 violated: measured gap %v > bound %v", measuredGap, bound.Total)
	}
	if measuredGap < 0 {
		t.Errorf("negative measured gap %v (optimum wrong)", measuredGap)
	}
	t.Logf("measured gap %.3g vs Theorem 2 bound %.3g (floor %.3g)", measuredGap, bound.Total, bound.Floor)
}
