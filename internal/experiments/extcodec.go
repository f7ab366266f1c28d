package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/tensor"
)

// ExtCodecConfig parameterizes the communication-efficiency extension: the
// same federated run under each update codec, compared on accuracy achieved
// per wire byte.
type ExtCodecConfig struct {
	Scale Scale
	// Codecs lists the internal/codec specs to compare; nil means
	// {raw, f16, q8, topk}.
	Codecs []string
	// AlphaBeta is the Synthetic similarity level (0.5, the middle ground).
	AlphaBeta float64
	// Alpha, Beta are the learning rates.
	Alpha, Beta float64
	// T, T0 are the iteration budget and local steps.
	T, T0 int
	// AdaptSteps is the target-side adaptation depth for the accuracy probe.
	AdaptSteps int
	Seed       uint64
}

// DefaultExtCodecConfig returns the extension's configuration at the given
// scale.
func DefaultExtCodecConfig(scale Scale) ExtCodecConfig {
	cfg := ExtCodecConfig{
		Scale:      scale,
		Codecs:     []string{"raw", "f16", "q8", "topk"},
		AlphaBeta:  0.5,
		Alpha:      0.01,
		Beta:       0.01,
		T:          500,
		T0:         10,
		AdaptSteps: 10,
		Seed:       1,
	}
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

// extCodecCell is one codec's output slot.
type extCodecCell struct {
	curve *eval.Series
	bytes int64
	acc   float64
}

// RunExtCodec trains the same Synthetic federation once per codec and
// reports accuracy-versus-traffic. Each cell owns its federation, model,
// recorder, and series, so the fan-out is bit-identical for every worker
// count; only the wire encoding differs between cells.
func RunExtCodec(cfg ExtCodecConfig) (*ExtCodecResult, error) {
	if len(cfg.Codecs) == 0 {
		cfg.Codecs = []string{"raw", "f16", "q8", "topk"}
	}
	cells := make([]extCodecCell, len(cfg.Codecs))
	err := par.ForEachErr(0, len(cfg.Codecs), func(c int) error {
		spec := cfg.Codecs[c]
		fed, err := syntheticFederation(cfg.AlphaBeta, cfg.AlphaBeta, cfg.Scale, 5, cfg.Seed)
		if err != nil {
			return fmt.Errorf("ext-codec data: %w", err)
		}
		m := softmaxModel(fed)
		rec := obs.NewRecorder()
		accByIter := map[int]float64{}
		trainCfg := core.Config{
			Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed,
			Codec:    spec,
			Observer: rec,
			OnRound: func(_, iter int, theta tensor.Vec) {
				accs := eval.FinalAccuraciesN(m, theta, fed.Targets, cfg.Alpha, cfg.AdaptSteps, 1)
				var s float64
				for _, a := range accs {
					s += a
				}
				accByIter[iter] = s / float64(len(accs))
			},
		}
		res, err := core.Train(m, fed, nil, trainCfg)
		if err != nil {
			return fmt.Errorf("ext-codec train %q: %w", spec, err)
		}
		// Join the accuracy probe with the billed traffic on the shared
		// iteration axis, yielding accuracy as a function of bytes spent.
		curve := &eval.Series{Name: spec}
		for _, p := range eval.TrafficTrajectory(spec, rec.Rounds()).Points {
			if acc, ok := accByIter[p.Iter]; ok {
				curve.Add(int(p.Value/1024), acc)
			}
		}
		cells[c].curve = curve
		cells[c].bytes = res.Comm.Bytes
		if last, ok := curve.Last(); ok {
			cells[c].acc = last.Value
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &ExtCodecResult{}
	for i, cell := range cells {
		res.Curves = append(res.Curves, cell.curve)
		res.Codecs = append(res.Codecs, cfg.Codecs[i])
		res.Bytes = append(res.Bytes, cell.bytes)
		res.FinalAcc = append(res.FinalAcc, cell.acc)
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
