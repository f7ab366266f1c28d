package nn

import "testing"

// headless is a model whose layout names no "head.*" segment.
type headless struct{ Model }

func (headless) Segments() []Segment { return []Segment{{Name: "layer0.w", Lo: 0, Hi: 4}} }

// checkTiling asserts that segments are sorted, contiguous, and tile
// [0, numParams) exactly — the Model.Segments contract.
func checkTiling(t *testing.T, segs []Segment, numParams int) {
	t.Helper()
	off := 0
	for _, s := range segs {
		if s.Lo != off || s.Hi <= s.Lo {
			t.Fatalf("segment %q [%d,%d) breaks tiling at offset %d", s.Name, s.Lo, s.Hi, off)
		}
		off = s.Hi
	}
	if off != numParams {
		t.Fatalf("segments tile %d params, model has %d", off, numParams)
	}
}

func TestSoftmaxSegments(t *testing.T) {
	m := &SoftmaxRegression{In: 60, Classes: 10}
	segs := m.Segments()
	checkTiling(t, segs, m.NumParams())
	head, err := HeadSegments(m)
	if err != nil {
		t.Fatal(err)
	}
	// Single-layer model: the head is the entire vector.
	total := 0
	for _, s := range head {
		total += s.Hi - s.Lo
	}
	if total != m.NumParams() {
		t.Fatalf("softmax head covers %d of %d params", total, m.NumParams())
	}
}

func TestMLPSegments(t *testing.T) {
	for _, bn := range []bool{false, true} {
		m, err := NewMLP(MLPConfig{Dims: []int{60, 32, 16, 10}, BatchNorm: bn})
		if err != nil {
			t.Fatal(err)
		}
		segs := m.Segments()
		checkTiling(t, segs, m.NumParams())

		head, err := HeadSegments(m)
		if err != nil {
			t.Fatal(err)
		}
		// Head = last layer's W (10×16) + b (10), never batch norm (BN is
		// hidden-layer only), and far smaller than the full vector.
		total := 0
		for _, s := range head {
			total += s.Hi - s.Lo
		}
		if total != 10*16+10 {
			t.Fatalf("bn=%v: head covers %d params, want %d", bn, total, 10*16+10)
		}
		if head[0].Hi != m.NumParams()-10 || head[1].Hi != m.NumParams() {
			t.Fatalf("bn=%v: head segments %v not at the tail of the vector", bn, head)
		}
	}
}

func TestHeadSegmentsRejectsHeadlessModel(t *testing.T) {
	if _, err := HeadSegments(headless{}); err == nil {
		t.Fatal("HeadSegments accepted a model with no head segments")
	}
}
