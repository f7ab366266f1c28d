// Package checkpoint persists trained meta-models so the platform can hand
// an initialization to target edge nodes out-of-band (a file, an object
// store) instead of a live connection — the "transfer via the platform"
// step of the paper's architecture, made durable.
//
// A Checkpoint is JSON with an explicit version and the model architecture
// embedded, so a target device can reconstruct the model family and run
// fast adaptation with nothing but the checkpoint. It is written once per
// run. The platform's per-round crash snapshot, RunState, is a separate
// binary format (runstate.go).
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
)

// FormatVersion identifies the checkpoint schema.
const FormatVersion = 1

// Model kinds.
const (
	KindSoftmax = "softmax-regression"
	KindMLP     = "mlp"
)

// Checkpoint is a serialized meta-trained initialization plus everything a
// target node needs to adapt it.
type Checkpoint struct {
	Version     int    `json:"version"`
	Description string `json:"description,omitempty"`
	// ModelKind selects the architecture block below.
	ModelKind string `json:"model_kind"`

	// Softmax-regression architecture (ModelKind == KindSoftmax).
	SoftmaxIn      int     `json:"softmax_in,omitempty"`
	SoftmaxClasses int     `json:"softmax_classes,omitempty"`
	SoftmaxL2      float64 `json:"softmax_l2,omitempty"`

	// MLP architecture (ModelKind == KindMLP).
	MLPDims      []int   `json:"mlp_dims,omitempty"`
	MLPBatchNorm bool    `json:"mlp_batch_norm,omitempty"`
	MLPL2        float64 `json:"mlp_l2,omitempty"`

	// Alpha is the adaptation learning rate the initialization was
	// meta-trained for (the target should adapt with the same α).
	Alpha float64 `json:"alpha"`
	// Params is the flat parameter vector θ.
	Params []float64 `json:"params"`
}

// FromModel builds a checkpoint for a trained model.
func FromModel(m nn.Model, params tensor.Vec, alpha float64, description string) (*Checkpoint, error) {
	if len(params) != m.NumParams() {
		return nil, fmt.Errorf("checkpoint: %d params for a %d-param model", len(params), m.NumParams())
	}
	c := &Checkpoint{
		Version:     FormatVersion,
		Description: description,
		Alpha:       alpha,
		Params:      append([]float64(nil), params...),
	}
	switch mt := m.(type) {
	case *nn.SoftmaxRegression:
		c.ModelKind = KindSoftmax
		c.SoftmaxIn = mt.In
		c.SoftmaxClasses = mt.Classes
		c.SoftmaxL2 = mt.L2
	case *nn.MLP:
		c.ModelKind = KindMLP
		c.MLPDims = mt.Dims()
		c.MLPBatchNorm = mt.BatchNorm()
		c.MLPL2 = mt.L2()
	default:
		return nil, fmt.Errorf("checkpoint: unsupported model type %T", m)
	}
	return c, nil
}

// Model reconstructs the model family described by the checkpoint.
func (c *Checkpoint) Model() (nn.Model, error) {
	switch c.ModelKind {
	case KindSoftmax:
		m := &nn.SoftmaxRegression{In: c.SoftmaxIn, Classes: c.SoftmaxClasses, L2: c.SoftmaxL2}
		if m.In <= 0 || m.Classes < 2 {
			return nil, fmt.Errorf("checkpoint: invalid softmax shape %dx%d", m.In, m.Classes)
		}
		return m, nil
	case KindMLP:
		return nn.NewMLP(nn.MLPConfig{Dims: c.MLPDims, BatchNorm: c.MLPBatchNorm, L2: c.MLPL2})
	default:
		return nil, fmt.Errorf("checkpoint: unknown model kind %q", c.ModelKind)
	}
}

// Validate checks internal consistency, including that the parameter count
// matches the declared architecture.
func (c *Checkpoint) Validate() error {
	if c.Version != FormatVersion {
		return fmt.Errorf("checkpoint: unsupported version %d (want %d)", c.Version, FormatVersion)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("checkpoint: adaptation rate α=%v must be positive", c.Alpha)
	}
	m, err := c.Model()
	if err != nil {
		return err
	}
	if len(c.Params) != m.NumParams() {
		return fmt.Errorf("checkpoint: %d params, architecture needs %d", len(c.Params), m.NumParams())
	}
	if !tensor.Vec(c.Params).IsFinite() {
		return errors.New("checkpoint: parameters contain NaN or Inf")
	}
	return nil
}

// Write serializes the checkpoint as JSON.
func Write(w io.Writer, c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// Read deserializes and validates a checkpoint.
func Read(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// SaveFile writes the checkpoint to path (0644).
func SaveFile(path string, c *Checkpoint) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: create %s: %w", path, err)
	}
	if err := Write(f, c); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", path, err)
	}
	return nil
}

// LoadFile reads and validates a checkpoint from path.
func LoadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	defer f.Close()
	return Read(f)
}
