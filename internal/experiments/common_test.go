package experiments

import (
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
)

func TestTrackingView(t *testing.T) {
	fed := &data.Federation{
		Name:    "t",
		Sources: make([]*data.NodeDataset, 10),
		Targets: make([]*data.NodeDataset, 3),
	}
	small := trackingView(fed, 4)
	if len(small.Sources) != 4 {
		t.Errorf("capped view has %d sources", len(small.Sources))
	}
	if len(small.Targets) != 3 || small.Name != "t" {
		t.Error("view lost other fields")
	}
	// Under the cap the original is returned untouched.
	same := trackingView(fed, 100)
	if same != fed {
		t.Error("uncapped view copied the federation")
	}
	// The view must not mutate the original.
	if len(fed.Sources) != 10 {
		t.Error("trackingView mutated the input")
	}
}

func TestRenderSeriesTableEmpty(t *testing.T) {
	out := renderSeriesTable("title", "y", nil)
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	out = renderSeriesTable("title", "y", []*eval.Series{{Name: "empty"}})
	if !strings.Contains(out, "empty") {
		t.Error("missing series name")
	}
}

func TestRenderSeriesTableRagged(t *testing.T) {
	a := &eval.Series{Name: "a"}
	a.Add(1, 1.0)
	a.Add(2, 2.0)
	b := &eval.Series{Name: "b"}
	b.Add(1, 3.0)
	out := renderSeriesTable("t", "y", []*eval.Series{a, b})
	if !strings.Contains(out, "-") {
		t.Error("ragged series not padded")
	}
}

func TestRenderAdaptTableEmptyAndLoss(t *testing.T) {
	out := renderAdaptTable("t", nil, nil, "accuracy")
	if !strings.Contains(out, "t") {
		t.Error("missing title")
	}
	curves := [][]eval.AdaptPoint{{{Step: 0, Loss: 1.5, Accuracy: 0.5}}}
	out = renderAdaptTable("t", []string{"x"}, curves, "loss")
	if !strings.Contains(out, "1.5") {
		t.Errorf("loss metric not rendered: %s", out)
	}
	// Ragged curves pad with '-'.
	curves = append(curves, nil)
	out = renderAdaptTable("t", []string{"x", "y"}, curves, "accuracy")
	if !strings.Contains(out, "-") {
		t.Error("ragged curves not padded")
	}
}

func TestBuildWorkloadUnknownDataset(t *testing.T) {
	if _, _, err := (workload{dataset: "cifar"}).build(ScaleCI, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}
