package core

import (
	"fmt"
	"math"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
)

// LocalRule is what a node does between two aggregations when it is not
// running FedML. The set is closed: LocalSGD, Reptile and RepShare. Nil
// (Config.Local unset) is FedML itself — Algorithm 1, or Algorithm 2 when
// Config.Robust is set. A rule changes nothing on the platform side: the
// broadcast, gather, aggregation, codecs, masks, chaos handling, budgets and
// accounting are the ones FedML runs on, so every baseline is billed and
// observed like the FedML arm.
type LocalRule interface{ localRule() }

// LocalSGD is FedAvg (McMahan et al.): T0 full-batch gradient steps at rate β
// on the node's whole local dataset (train ∪ test — "the entire dataset is
// used for training in Fedavg"). With Mu > 0 it is FedProx (Sahu et al.):
// each step descends L_i(θ) + (μ/2)‖θ − θ_global‖², which bounds client drift
// on heterogeneous federations.
type LocalSGD struct{ Mu float64 }

// Reptile is federated Reptile (Nichol et al.), the first-order
// meta-learning baseline: T0 full-batch gradient steps at rate α on the
// node's K-shot train split give φ, and the node replies θ + ε(φ − θ). The
// platform's weighted mean of those replies is (1−ε)θ + ε·avg φ, Reptile's
// interpolation, computed where the data is.
type Reptile struct{ Eps float64 }

// RepShare is representation sharing (FedPer / LG-FedAvg): nodes train like
// LocalSGD at rate β but keep their own nn.HeadSegments coordinates across
// rounds; each broadcast overwrites only the trunk. The aggregate θ is then
// the shared trunk plus the weighted-mean head — the initialization an unseen
// node starts from. A node's head lives only in its process: it is not
// checkpointed, and a restarted node re-seeds it from the next broadcast.
type RepShare struct{}

func (LocalSGD) localRule() {}
func (Reptile) localRule()  {}
func (RepShare) localRule() {}

// validateLocal checks the rule's own knobs; the model-dependent check is
// checkLocalModel.
func validateLocal(c *Config) error {
	switch r := c.Local.(type) {
	case nil:
		return nil
	case LocalSGD:
		if math.IsNaN(r.Mu) || math.IsInf(r.Mu, 0) || r.Mu < 0 {
			return fmt.Errorf("core: LocalSGD μ = %v must be finite and >= 0", r.Mu)
		}
	case Reptile:
		if !(r.Eps > 0 && r.Eps <= 1) {
			return fmt.Errorf("core: Reptile ε = %v must be in (0, 1]", r.Eps)
		}
	case RepShare:
	default:
		return fmt.Errorf("core: unknown local rule %T", c.Local)
	}
	if c.Robust != nil {
		return fmt.Errorf("core: Robust applies only to FedML (Local unset), not to %T", c.Local)
	}
	return nil
}

// checkLocalModel checks the rule against the model: RepShare needs a trunk,
// a block outside the head, to share.
func checkLocalModel(c Config, m nn.Model) error {
	if _, ok := c.Local.(RepShare); !ok {
		return nil
	}
	head, err := headRanges(m)
	if err != nil {
		return err
	}
	if len(head) == 1 && head[0].Lo == 0 && head[0].Hi == m.NumParams() {
		return fmt.Errorf("core: RepShare needs a model with a non-head block; %T is all head", m)
	}
	return nil
}

// headRanges is the model's nn.HeadSegments as wire ranges. Adjacent
// segments (w directly followed by b) coalesce into one range, keeping a
// sync mask's header minimal.
func headRanges(m nn.Model) ([]codec.Range, error) {
	segs, err := nn.HeadSegments(m)
	if err != nil {
		return nil, err
	}
	var ranges []codec.Range
	for _, s := range segs {
		if n := len(ranges); n > 0 && ranges[n-1].Hi == s.Lo {
			ranges[n-1].Hi = s.Hi
			continue
		}
		ranges = append(ranges, codec.Range{Lo: s.Lo, Hi: s.Hi})
	}
	return ranges, nil
}

// ruleUpdates runs the configured LocalRule from the broadcast parameters
// global and returns the reply, the node's reusable buffer.
func (n *nodeState) ruleUpdates(global tensor.Vec, steps int) (tensor.Vec, error) {
	theta, cfg := n.theta, n.cfg
	switch r := cfg.Local.(type) {
	case LocalSGD:
		theta.CopyFrom(global)
		for t := 0; t < steps; t++ {
			if r.Mu > 0 {
				// ∇[(μ/2)‖θ − θ_global‖²] = μ(θ − θ_global) modifies the
				// gradient, so the step cannot fuse.
				n.model.GradInto(n.nws, theta, n.all, n.grad)
				n.grad.Axpy(r.Mu, theta)
				n.grad.Axpy(-r.Mu, global)
				theta.Axpy(-cfg.Beta, n.grad)
			} else {
				n.model.GradStepInto(n.nws, theta, n.all, cfg.Beta, theta)
			}
		}
	case Reptile:
		theta.CopyFrom(global)
		for t := 0; t < steps; t++ {
			n.model.GradStepInto(n.nws, theta, n.data.Train, cfg.Alpha, theta)
		}
		if r.Eps != 1 { // ε = 1 replies φ itself
			for i, g := range global {
				theta[i] = g + r.Eps*(theta[i]-g)
			}
		}
	case RepShare:
		if n.headSeeded {
			projectMask(theta, global, n.head)
		} else {
			theta.CopyFrom(global)
			n.headSeeded = true
		}
		for t := 0; t < steps; t++ {
			n.model.GradStepInto(n.nws, theta, n.all, cfg.Beta, theta)
		}
	}
	n.iter += steps
	if !theta.IsFinite() {
		return nil, fmt.Errorf("core: node %d diverged by iteration %d (non-finite parameters)", n.id, n.iter)
	}
	return theta, nil
}
