package nn

import "fmt"

// Segment names one structurally meaningful, contiguous slice [Lo, Hi) of a
// model's flat parameter vector — a layer's weight matrix, a bias, a batch
// norm scale. Segments are the layout metadata partial-parameter sync needs:
// the federated runtime can freeze or sync whole segments without knowing
// the architecture (TinyMetaFed-style structural partial updates).
type Segment struct {
	// Name identifies the segment: "layer<l>.<part>" for hidden layers,
	// "head.<part>" for the final (output) layer, with <part> one of
	// w, b, gamma, beta.
	Name string
	// Lo and Hi bound the half-open slice of the flat parameter vector.
	Lo, Hi int
}

// Len returns the number of parameters in the segment.
func (s Segment) Len() int { return s.Hi - s.Lo }

// HeadSegments returns the model's output-layer ("head.*") segments, the
// structural subset a head-only sync policy keeps synchronizing after
// warmup. The error names models that have no head — callers surface it at
// configuration time, not mid-training.
func HeadSegments(m Model) ([]Segment, error) {
	var head []Segment
	for _, s := range m.Segments() {
		if len(s.Name) >= 5 && s.Name[:5] == "head." {
			head = append(head, s)
		}
	}
	if len(head) == 0 {
		return nil, fmt.Errorf("nn: model %T has no head segments", m)
	}
	return head, nil
}

// Segments reports the softmax layout: a single dense layer, so the whole
// vector is the head ("head.w" then "head.b", matching the view order).
// Head-only masking degenerates to full sync, harmlessly.
func (m *SoftmaxRegression) Segments() []Segment {
	wLen := m.Classes * m.In
	return []Segment{
		{Name: "head.w", Lo: 0, Hi: wLen},
		{Name: "head.b", Lo: wLen, Hi: wLen + m.Classes},
	}
}

// Segments reports the MLP layout in viewInto's order: per layer, the
// weight matrix then the bias, then (with batch norm, hidden layers only)
// gamma and beta. The final layer's segments are named "head.*"; hidden
// layers are "layer<l>.*".
func (m *MLP) Segments() []Segment {
	var segs []Segment
	off := 0
	for l := 0; l < m.layers(); l++ {
		out, in := m.dims[l+1], m.dims[l]
		prefix := fmt.Sprintf("layer%d", l)
		if l == m.layers()-1 {
			prefix = "head"
		}
		segs = append(segs, Segment{Name: prefix + ".w", Lo: off, Hi: off + out*in})
		off += out * in
		segs = append(segs, Segment{Name: prefix + ".b", Lo: off, Hi: off + out})
		off += out
		if m.batchNorm && l < m.layers()-1 {
			segs = append(segs, Segment{Name: prefix + ".gamma", Lo: off, Hi: off + out})
			off += out
			segs = append(segs, Segment{Name: prefix + ".beta", Lo: off, Hi: off + out})
			off += out
		}
	}
	return segs
}
