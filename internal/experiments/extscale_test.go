package experiments

import (
	"math"
	"testing"
)

func TestExtScaleCI(t *testing.T) {
	cfg := DefaultExtScaleConfig(ScaleCI)
	res, err := RunExtScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != cfg.Nodes || res.Rounds != 3 {
		t.Fatalf("result shape %+v does not match config %+v", res, cfg)
	}
	if !res.StatsParity {
		t.Errorf("root stats did not equal shard sum / expected traffic: %+v", res.Root)
	}
	if res.Root.Messages != 2*cfg.Nodes*res.Rounds {
		t.Errorf("messages = %d, want %d", res.Root.Messages, 2*cfg.Nodes*res.Rounds)
	}
	// The linear dynamics aggregate must track the closed form to FP
	// accumulation error, not algorithmic error.
	if res.MaxClosedFormErr > 1e-9 || math.IsNaN(res.MaxClosedFormErr) {
		t.Errorf("closed-form deviation %v too large", res.MaxClosedFormErr)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestExtScaleDeterministic(t *testing.T) {
	cfg := DefaultExtScaleConfig(ScaleCI)
	cfg.Nodes = 512
	cfg.Shards = 3
	a, err := RunExtScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExtScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxClosedFormErr != b.MaxClosedFormErr || a.Root != b.Root {
		t.Errorf("ext-scale not deterministic: %+v vs %+v", a, b)
	}
}
