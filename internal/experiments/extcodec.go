package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
)

// ExtCodecConfig parameterizes the communication-efficiency extension: the
// same federated run under each update codec, compared on accuracy achieved
// per wire byte.
type ExtCodecConfig struct {
	Scale Scale
	// Codecs lists the internal/codec specs to compare; the first is the
	// baseline the compression ratios are taken against.
	Codecs []string
	// T is the iteration budget.
	T int
}

// DefaultExtCodecConfig returns the extension's configuration at the given
// scale.
func DefaultExtCodecConfig(scale Scale) ExtCodecConfig {
	cfg := ExtCodecConfig{Scale: scale, Codecs: []string{"raw", "f16", "q8", "topk"}, T: 500}
	if scale == ScaleCI {
		cfg.T = 100
	}
	return cfg
}

// ExtCodecResult holds one accuracy-vs-bytes curve per codec plus the
// end-of-run summary row each curve collapses to.
type ExtCodecResult struct {
	// Curves plot mean target accuracy (y) against cumulative wire KiB (x,
	// stored in the Series iteration slot) — the paper-style comparison of
	// what each transmitted byte buys.
	Curves []*eval.Series
	// Codecs, Bytes, FinalAcc are the per-codec totals, in Curves order.
	Codecs   []string
	Bytes    []int64
	FinalAcc []float64
}

// RunExtCodec trains the same Synthetic federation once per codec and
// reports accuracy-versus-traffic. Every arm builds its own federation; only
// the wire encoding differs between arms.
func RunExtCodec(cfg ExtCodecConfig) (*ExtCodecResult, error) {
	// Synthetic(0.5, 0.5), the middle ground; adaptSteps is the target-side
	// adaptation depth of the accuracy probe.
	const ab, alpha, beta, t0, adaptSteps, seed = 0.5, 0.01, 0.01, 10, 10, 1
	arms := make([]arm, len(cfg.Codecs))
	for i, spec := range cfg.Codecs {
		arms[i] = arm{
			name:     spec,
			cfg:      core.Config{Alpha: alpha, Beta: beta, T: cfg.T, T0: t0, Seed: seed, Codec: spec},
			build:    workload{dataset: "synthetic", ab: ab}.builder(cfg.Scale, seed),
			accuracy: &accuracyProbe{alpha: alpha, steps: adaptSteps},
		}
	}
	runs, err := runArms("ext-codec", arms)
	if err != nil {
		return nil, err
	}
	res := &ExtCodecResult{Codecs: cfg.Codecs}
	for _, r := range runs {
		last, _ := r.accVsKiB.Last()
		res.Curves = append(res.Curves, r.accVsKiB)
		res.Bytes = append(res.Bytes, r.comm.Bytes)
		res.FinalAcc = append(res.FinalAcc, last.Value)
	}
	return res, nil
}

// Render implements the printable extension: one accuracy-vs-KiB block per
// codec (the x-grids differ by construction — that is the point), then the
// summary table with compression ratios against the first (baseline) codec.
func (r *ExtCodecResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: accuracy vs wire traffic by update codec, Synthetic(0.5,0.5)\n")
	for _, s := range r.Curves {
		fmt.Fprintf(&b, "codec %s (KiB -> mean target accuracy)\n", s.Name)
		b.WriteString(s.TSV())
	}
	b.WriteString("codec      total KiB   final acc   ratio vs raw\n")
	base := float64(r.Bytes[0])
	for i, name := range r.Codecs {
		fmt.Fprintf(&b, "%-10s %-11.1f %-11.4f %.2fx\n",
			name, float64(r.Bytes[i])/1024, r.FinalAcc[i], base/float64(r.Bytes[i]))
	}
	return b.String()
}
