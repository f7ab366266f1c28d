package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/dro"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// hashVecs is the SHA-256 of the IEEE-754 bits of every element, in order.
func hashVecs(vs ...tensor.Vec) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// samplesVecs flattens a batch into its features and labels, for hashing.
func samplesVecs(batch []data.Sample) []tensor.Vec {
	out := make([]tensor.Vec, 0, 2*len(batch))
	for _, s := range batch {
		out = append(out, s.X, tensor.Vec{float64(s.Y)})
	}
	return out
}

// TestRobustBitsPinned pins the bits of Algorithm 2 (Robust FedML) end to
// end: θ after core.Train with Robust set, and the outputs of both dro entry
// points on that θ (FGSMBatch on the target's test set, and Perturb, the
// node-side ascent, on each of its samples). No
// benchmark workload runs the robust path, so a change to the input-gradient
// kernels, the ascent loop or the adversarial schedule that moves a single
// bit fails here. The softmax case regenerates twice (R = 2) with clamping
// on and an ascent rate above the 0.45/λ stability cap, so the clamp and the
// cap both shape its bits; the MLP case runs the frozen batch-norm input
// gradient.
//
// amd64 only, like TestMLPGradBitsPinned: arm64 fuses multiply-adds.
func TestRobustBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	fed := tinyFederation(t, 0.5, 0.5)
	mlp, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 8, 6, fed.NumClasses}, BatchNorm: true, L2: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		m          nn.Model
		robust     RobustConfig
		theta, dro string
	}{
		{
			name:   "softmax/synthetic",
			m:      tinyModel(fed),
			robust: RobustConfig{Lambda: 1, Nu: 0.6, Ta: 3, N0: 1, R: 2, ClampMin: -0.8, ClampMax: 0.8},
			theta:  "04e4872a1bae55f80f5cf8f9ca10dd0e2bedc50352a21deeeaebbe185b2b907d",
			dro:    "f21950aed86922c12643ef6cb1c3a2304b8764a46247202df8fd7c7e10a905ab",
		},
		{
			name:   "mlp-bn/synthetic",
			m:      mlp,
			robust: RobustConfig{Lambda: 0.5, Nu: 0.3, Ta: 2, N0: 1, R: 3},
			theta:  "63d96083128936bf7797dac879261ec14ddec01ce2d6fc996f69dc1f3842cfa5",
			dro:    "ea4de31d3c68295a85a51561a8965aff349b19a909da54ff992f8395f64f49cf",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			robust := tc.robust
			cfg := Config{Alpha: 0.02, Beta: 0.02, T: 12, T0: 2, Seed: 3, Robust: &robust}
			res, err := Train(tc.m, fed, tc.m.InitParams(rng.New(4)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashVecs(res.Theta); got != tc.theta {
				t.Errorf("θ bits moved:\n got %s\nwant %s", got, tc.theta)
			}

			target := fed.Targets[0]
			pcfg := perturbConfig(tc.robust)
			fgsm, err := dro.FGSMBatch(tc.m, res.Theta, target.Test, 0.1, tc.robust.ClampMin, tc.robust.ClampMax)
			if err != nil {
				t.Fatal(err)
			}
			advs := fgsm
			for _, s := range target.Test {
				adv, err := dro.Perturb(tc.m, res.Theta, s, target.Test, pcfg)
				if err != nil {
					t.Fatal(err)
				}
				advs = append(advs, adv)
			}
			outs := samplesVecs(advs)
			for _, v := range outs {
				if !v.IsFinite() {
					t.Fatal("non-finite output: the digest would pin nothing")
				}
			}
			if got := hashVecs(outs...); got != tc.dro {
				t.Errorf("dro bits moved:\n got %s\nwant %s", got, tc.dro)
			}
		})
	}
}
