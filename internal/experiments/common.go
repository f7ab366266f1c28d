// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI). Each experiment is a pure function of its config and
// returns a typed result with a Render method that prints the same
// rows/series the paper reports. The per-experiment index lives in
// DESIGN.md §4; EXPERIMENTS.md records paper-vs-measured shapes.
//
// Every experiment runs at two scales: ScaleCI (seconds, structurally
// identical, used by the test suite and the default benches) and ScalePaper
// (the paper's node counts and iteration budgets, used by
// cmd/fedml-bench -paper).
package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
)

// Scale selects the experiment size.
type Scale int

const (
	// ScaleCI shrinks node counts and iteration budgets so the whole suite
	// runs in seconds while preserving every structural property.
	ScaleCI Scale = iota + 1
	// ScalePaper uses the paper's configuration.
	ScalePaper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleCI:
		return "ci"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// datasets generates every federation the experiments train on, keyed by
// dataset name, at the given scale: ab is Synthetic's similarity level
// (α̃ = β̃), which the other generators ignore, and k the samples per node of
// the inner step. ScaleCI shrinks the fleets. At paper scale Sent140 keeps
// the paper's 706-node fleet and Table I statistics, but its embedding
// dimension is reduced from 300 (the full GloVe width) to 24: the MLP keeps
// its 3 BN+ReLU hidden layers, and the run fits in minutes instead of days
// of CPU (every node runs finite-difference second-order meta-updates).
var datasets = map[string]func(scale Scale, ab float64, k int, seed uint64) (*data.Federation, error){
	"synthetic": func(scale Scale, ab float64, k int, seed uint64) (*data.Federation, error) {
		cfg := data.DefaultSyntheticConfig(ab, ab)
		cfg.K = k
		cfg.Seed = seed
		if scale == ScaleCI {
			cfg.Nodes = 20
		}
		return data.GenerateSynthetic(cfg)
	},
	"mnist": func(scale Scale, _ float64, k int, seed uint64) (*data.Federation, error) {
		cfg := data.DefaultMNISTConfig()
		cfg.K = k
		cfg.Seed = seed
		if scale == ScaleCI {
			cfg.Nodes = 20
			cfg.MeanSamples = 24
		}
		return data.GenerateMNIST(cfg)
	},
	"sent140": func(scale Scale, _ float64, k int, seed uint64) (*data.Federation, error) {
		cfg := data.DefaultSent140Config()
		cfg.K = k
		cfg.Seed = seed
		switch scale {
		case ScalePaper:
			cfg.Nodes = 706
			cfg.EmbedDim = 24
		default:
			cfg.Nodes = 30
			cfg.EmbedDim = 12
			cfg.SeqLen = 10
		}
		return data.GenerateSent140(cfg)
	},
	"rec": func(scale Scale, _ float64, k int, seed uint64) (*data.Federation, error) {
		cfg := data.DefaultRecommendConfig()
		cfg.K = k
		cfg.Seed = seed
		if scale == ScaleCI {
			cfg.Users = 20
			cfg.Items = 60
		}
		return data.GenerateRecommend(cfg)
	},
	"fault": func(scale Scale, _ float64, k int, seed uint64) (*data.Federation, error) {
		cfg := data.DefaultFaultConfig()
		cfg.K = k
		cfg.Seed = seed
		if scale == ScaleCI {
			cfg.Devices = 20
		}
		return data.GenerateFault(cfg)
	},
}

// workload names a federation and the model trained on it.
type workload struct {
	// dataset keys datasets; ab is Synthetic's similarity level.
	dataset string
	ab      float64
	// k is the samples per node of the inner step; 0 means 5, every
	// generator's default.
	k int
	// hidden > 0 trains a one-hidden-layer MLP of that width instead of the
	// dataset's own model (sent140Model for Sent140, softmaxModel else).
	hidden int
}

// build generates the workload's federation and model.
func (w workload) build(scale Scale, seed uint64) (*data.Federation, nn.Model, error) {
	gen, ok := datasets[w.dataset]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown dataset %q", w.dataset)
	}
	k := w.k
	if k == 0 {
		k = 5
	}
	fed, err := gen(scale, w.ab, k, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s data: %w", w.dataset, err)
	}
	var m nn.Model
	switch {
	case w.hidden > 0:
		m, err = nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, w.hidden, fed.NumClasses}, L2: 0.01})
	case w.dataset == "sent140":
		m, err = sent140Model(fed, scale)
	default:
		m = softmaxModel(fed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s model: %w", w.dataset, err)
	}
	return fed, m, nil
}

// builder is the builder of an arm that generates the workload itself,
// inside its worker.
func (w workload) builder(scale Scale, seed uint64) func(*core.Config) (*data.Federation, nn.Model, error) {
	return func(*core.Config) (*data.Federation, nn.Model, error) { return w.build(scale, seed) }
}

// sent140Model builds the Sent140 head: 3 hidden layers with batch
// normalization and ReLU, then a linear+softmax output. The hidden widths
// scale with the reduced embedding (paper: 256/128/64 on 300-d GloVe).
func sent140Model(fed *data.Federation, scale Scale) (*nn.MLP, error) {
	dims := []int{fed.Dim, 128, 64, 32, fed.NumClasses}
	if scale == ScaleCI {
		dims = []int{fed.Dim, 32, 16, 8, fed.NumClasses}
	}
	return nn.NewMLP(nn.MLPConfig{Dims: dims, BatchNorm: true})
}

// softmaxModel builds the convex model used for synthetic and MNIST. The
// small ridge term matches Assumption 1 of the paper (the convergence
// analysis requires strongly convex local losses; plain cross-entropy is
// only convex) and keeps long federated runs well-posed.
func softmaxModel(fed *data.Federation) *nn.SoftmaxRegression {
	return &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
}

// trackingView caps the number of source nodes used for objective tracking
// on very large fleets: evaluating G(θ) over 700 nodes every round costs
// more than the training it measures. The subset is a deterministic prefix,
// so tracked curves are comparable across runs. A cap <= 0 keeps every
// source.
func trackingView(fed *data.Federation, maxSources int) *data.Federation {
	if maxSources <= 0 || len(fed.Sources) <= maxSources {
		return fed
	}
	view := *fed
	view.Sources = fed.Sources[:maxSources]
	return &view
}

// renderSeriesTable prints aligned iteration/value columns for a set of
// series sharing the same x-axis.
func renderSeriesTable(title, yLabel string, series []*eval.Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s", "iter")
	for _, s := range series {
		fmt.Fprintf(&b, "  %-22s", s.Name)
	}
	b.WriteByte('\n')
	if len(series) == 0 || len(series[0].Points) == 0 {
		return b.String()
	}
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%-8d", series[0].Points[i].Iter)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "  %-22.6g", s.Points[i].Value)
			} else {
				fmt.Fprintf(&b, "  %-22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%s)\n", yLabel)
	return b.String()
}

// renderAdaptTable prints step/loss/accuracy curves side by side.
func renderAdaptTable(title string, names []string, curves [][]eval.AdaptPoint, metric string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s", "step")
	for _, n := range names {
		fmt.Fprintf(&b, "  %-22s", n)
	}
	b.WriteByte('\n')
	if len(curves) == 0 || len(curves[0]) == 0 {
		return b.String()
	}
	for i := range curves[0] {
		fmt.Fprintf(&b, "%-6d", curves[0][i].Step)
		for _, c := range curves {
			if i >= len(c) {
				fmt.Fprintf(&b, "  %-22s", "-")
				continue
			}
			v := c[i].Accuracy
			if metric == "loss" {
				v = c[i].Loss
			}
			fmt.Fprintf(&b, "  %-22.6g", v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%s after k adaptation gradient steps, averaged over target nodes)\n", metric)
	return b.String()
}
