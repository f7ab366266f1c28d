// Package opt implements first-order optimizers over flat parameter
// vectors: plain SGD (the paper's meta-update), heavy-ball momentum, and
// Adam. The federated runtime keeps the paper's plain gradient descent on
// the nodes; these optimizers serve the centralized utilities (reference
// optimum estimation, ablations of the meta-update rule) and downstream
// users who want an adaptive outer step.
package opt

import (
	"fmt"
	"math"

	"github.com/edgeai/fedml/internal/tensor"
)

// Optimizer updates a parameter vector in place from a gradient. An
// optimizer owns per-parameter state and must be used with one vector
// length only.
type Optimizer interface {
	// Step applies one update: params ← params − update(grad).
	Step(params, grad tensor.Vec) error
	// Reset clears the internal state (moments, step counter).
	Reset()
	// Name identifies the rule.
	Name() string
}

// SGD is plain gradient descent with a fixed learning rate.
type SGD struct {
	// LR is the learning rate.
	LR float64
}

var _ Optimizer = (*SGD)(nil)

// Step implements Optimizer.
func (s *SGD) Step(params, grad tensor.Vec) error {
	if err := check(s.LR, params, grad); err != nil {
		return err
	}
	params.Axpy(-s.LR, grad)
	return nil
}

// Reset implements Optimizer (no state).
func (s *SGD) Reset() {}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Momentum is heavy-ball SGD: v ← γv + g; θ ← θ − η·v.
type Momentum struct {
	// LR is the learning rate; Gamma the momentum coefficient in [0, 1).
	LR, Gamma float64

	velocity tensor.Vec
}

var _ Optimizer = (*Momentum)(nil)

// Step implements Optimizer.
func (m *Momentum) Step(params, grad tensor.Vec) error {
	if err := check(m.LR, params, grad); err != nil {
		return err
	}
	if m.Gamma < 0 || m.Gamma >= 1 {
		return fmt.Errorf("opt: momentum γ must be in [0, 1), got %v", m.Gamma)
	}
	if m.velocity == nil {
		m.velocity = tensor.NewVec(len(params))
	} else if len(m.velocity) != len(params) {
		return fmt.Errorf("opt: optimizer built for %d params, got %d", len(m.velocity), len(params))
	}
	m.velocity.ScaleInPlace(m.Gamma)
	m.velocity.AddInPlace(grad)
	params.Axpy(-m.LR, m.velocity)
	return nil
}

// Reset implements Optimizer.
func (m *Momentum) Reset() { m.velocity = nil }

// Name implements Optimizer.
func (m *Momentum) Name() string { return "momentum" }

// Adam's moment decays and denominator floor: Kingma and Ba's standard
// values.
const (
	adamBeta1 float64 = 0.9
	adamBeta2 float64 = 0.999
	adamEps   float64 = 1e-8
)

// Adam is the Kingma–Ba adaptive optimizer with bias correction.
type Adam struct {
	// LR is the step size.
	LR float64

	m, v tensor.Vec
	t    int
}

var _ Optimizer = (*Adam)(nil)

// Step implements Optimizer.
func (a *Adam) Step(params, grad tensor.Vec) error {
	if err := check(a.LR, params, grad); err != nil {
		return err
	}
	if a.m == nil {
		a.m = tensor.NewVec(len(params))
		a.v = tensor.NewVec(len(params))
	} else if len(a.m) != len(params) {
		return fmt.Errorf("opt: optimizer built for %d params, got %d", len(a.m), len(params))
	}
	a.t++
	c1 := 1 - math.Pow(adamBeta1, float64(a.t))
	c2 := 1 - math.Pow(adamBeta2, float64(a.t))
	for i := range params {
		a.m[i] = adamBeta1*a.m[i] + (1-adamBeta1)*grad[i]
		a.v[i] = adamBeta2*a.v[i] + (1-adamBeta2)*grad[i]*grad[i]
		mHat := a.m[i] / c1
		vHat := a.v[i] / c2
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + adamEps)
	}
	return nil
}

// Reset implements Optimizer.
func (a *Adam) Reset() {
	a.m, a.v, a.t = nil, nil, 0
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

func check(lr float64, params, grad tensor.Vec) error {
	if lr <= 0 {
		return fmt.Errorf("opt: learning rate must be positive, got %v", lr)
	}
	if len(params) != len(grad) {
		return fmt.Errorf("opt: %d params but %d gradient entries", len(params), len(grad))
	}
	return nil
}
