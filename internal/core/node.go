package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/dro"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// RetryPolicy controls how a node handles transient link failures: each
// failed Send/Recv is retried after an exponentially growing, jittered
// delay. The zero value disables retrying (any link error is fatal, the
// pre-existing behavior).
type RetryPolicy struct {
	// MaxAttempts is the number of retries per operation; 0 disables.
	MaxAttempts int
	// BaseDelay is the first backoff delay. Zero means 20ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 2s.
	MaxDelay time.Duration
}

func (r RetryPolicy) normalized() RetryPolicy {
	if r.BaseDelay <= 0 {
		r.BaseDelay = 20 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 2 * time.Second
	}
	return r
}

// backoff returns the jittered delay before retry attempt k (0-based):
// BaseDelay·2^k, capped at MaxDelay, with up to 50% multiplicative jitter so
// a fleet of rejoining nodes does not thunder back in lockstep.
func (r RetryPolicy) backoff(k int, rand *rng.Rand) time.Duration {
	d := math.Ldexp(float64(r.BaseDelay), k)
	if max := float64(r.MaxDelay); d > max {
		d = max
	}
	return time.Duration(d * (1 + 0.5*rand.Float64()))
}

// NodeConfig identifies one source edge node.
type NodeConfig struct {
	// ID is the node's index in the federation (used in protocol messages
	// and to derive the node's private random stream).
	ID int
	// Model is the shared model family.
	Model nn.Model
	// Data is the node's local dataset (already split into train/test).
	Data *data.NodeDataset
	// Shared holds the algorithm hyper-parameters (must match the
	// platform's).
	Shared Config
	// Retry, when enabled, makes the node ride out transient link errors
	// with exponential backoff instead of dying on the first hiccup.
	Retry RetryPolicy
	// Redial, when non-nil, is invoked between retry attempts to establish
	// a replacement link (e.g. transport.Dial back to the platform after a
	// TCP connection died). The old link is closed first. Without Redial, a
	// closed link is permanent and retrying stops early.
	Redial func() (transport.Link, error)
}

// nodeLink wraps the node's endpoint with the retry/redial policy: failed
// operations back off exponentially (with jitter) and, when a Redial hook is
// configured, each retry attempt runs over a freshly established link.
type nodeLink struct {
	link   transport.Link
	retry  RetryPolicy
	redial func() (transport.Link, error)
	rand   *rng.Rand
}

// do runs op with retries per the policy. Without a redial hook a closed
// link is permanent, so retrying stops early instead of spinning.
func (l *nodeLink) do(op func(transport.Link) error) error {
	err := op(l.link)
	for k := 0; err != nil && k < l.retry.MaxAttempts; k++ {
		if l.redial == nil && errors.Is(err, transport.ErrClosed) {
			return err
		}
		time.Sleep(l.retry.backoff(k, l.rand))
		if l.redial != nil {
			fresh, derr := l.redial()
			if derr != nil {
				err = fmt.Errorf("redial: %w", derr)
				continue
			}
			_ = l.link.Close()
			l.link = fresh
		}
		err = op(l.link)
	}
	return err
}

func (l *nodeLink) recv() (transport.Msg, error) {
	var m transport.Msg
	err := l.do(func(lk transport.Link) error {
		var e error
		m, e = lk.Recv()
		return e
	})
	return m, err
}

func (l *nodeLink) send(m transport.Msg) error {
	return l.do(func(lk transport.Link) error { return lk.Send(m) })
}

// report tells the platform that node id failed in round, best effort, so it
// can act on the failure instead of waiting out the round.
func (l *nodeLink) report(round, id int, cause string) {
	_ = l.send(transport.Msg{Kind: transport.KindError, Round: round, NodeID: id, Err: cause})
}

// RunNode executes the node side of Algorithm 1 (Algorithm 2 when
// Shared.Robust is set, a baseline when Shared.Local is) over link, until
// the platform sends KindDone or the link fails. Transient link errors are
// retried per nc.Retry (with nc.Redial re-establishing the connection when
// set); any node-side failure is reported to the platform as a KindError
// message before returning.
func RunNode(link transport.Link, nc NodeConfig) error {
	cfg := nc.Shared.normalized()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if nc.Model == nil || nc.Data == nil {
		return fmt.Errorf("core: node %d missing model or data", nc.ID)
	}
	if err := checkLocalModel(cfg, nc.Model); err != nil {
		return err
	}

	n := newNodeState(cfg, nc.Model, nc.Data, nc.ID)
	// The retry jitter draws from its own stream so backoff timing can
	// never perturb the node's training randomness.
	nl := &nodeLink{
		link:   link,
		retry:  nc.Retry.normalized(),
		redial: nc.Redial,
		rand:   rng.New(cfg.Seed).Split(uint64(nc.ID) + 0x5e7241),
	}

	// Codec state mirrors the platform: every parameter message carries the
	// codec tag, so the node instantiates the matching decoder/encoder pair
	// on first sight and re-creates it if the tag ever changes. Both sides
	// are mask-aware: a masked broadcast scatters into the node's retained
	// reference, and the node mirrors the broadcast's mask on its reply so
	// only the synced coordinates travel back.
	var (
		downDec *codec.Masked // decodes platform→node parameter payloads
		upEnc   *codec.Masked // encodes this node's update replies
	)

	for {
		msg, err := nl.recv()
		if err != nil {
			return fmt.Errorf("core: node %d recv: %w", nc.ID, err)
		}
		switch msg.Kind {
		case transport.KindDone:
			return nil
		case transport.KindParams:
			// msg's sections are lent until the next recv; this round is
			// done with them before it (localUpdates copies global, the
			// decoder copies the payload).
			global := tensor.Vec(msg.Params)
			var wireMask []codec.Range
			if msg.Codec != "" {
				if downDec == nil || downDec.Name() != msg.Codec {
					inner, cerr := codec.New(msg.Codec)
					if cerr != nil {
						return fmt.Errorf("core: node %d: platform sent %v", nc.ID, cerr)
					}
					downDec = codec.NewMasked(inner)
					innerUp, _ := codec.New(msg.Codec)
					upEnc = codec.NewMasked(innerUp)
				}
				decoded, ranges, derr := downDec.DecodeMasked(msg.Payload, nil)
				if derr != nil {
					// A broken reference chain (missed broadcasts) or wire
					// corruption. Report it and stay alive: a fault-tolerant
					// platform marks this node suspect and its next probe is
					// a full resync the fresh chain can decode.
					nl.report(msg.Round, nc.ID, fmt.Sprintf("decode params: %v", derr))
					continue
				}
				if codec.IsFull(msg.Payload) {
					// A full downlink doubles as the resync signal: restart
					// the uplink chain so the platform's reset decoder gets
					// a full payload back.
					upEnc.Reset()
				}
				// Both are lent by downDec until its next decode, the next
				// broadcast: localUpdates copies global before it writes, and
				// upEnc copies the mask.
				global = tensor.Vec(decoded)
				wireMask = ranges
			}
			steps := cfg.T0
			if msg.LocalSteps > 0 {
				steps = msg.LocalSteps
			}
			var compT0 time.Time
			if cfg.Observer != nil {
				compT0 = time.Now()
			}
			theta, err := n.localUpdates(global, steps, msg.Round)
			if err != nil {
				nl.report(msg.Round, nc.ID, err.Error())
				return fmt.Errorf("core: node %d local update: %w", nc.ID, err)
			}
			if cfg.Observer != nil {
				cfg.Observer.Observe(obs.Event{
					Type: obs.TypeNodeCompute, Round: msg.Round, Node: nc.ID,
					Iter: n.iter, T0: steps, Dur: time.Since(compT0),
				})
			}
			// Ownership of Msg.Params/Payload transfers to the receiver on
			// Send (see transport.Msg); theta is the node's reusable buffer,
			// so a copy (or a fresh encoding) must cross the boundary.
			// Version echoes the broadcast's θ-version tag so an async
			// platform can compute the update's staleness; zero (and
			// harmless) on the sync path.
			reply := transport.Msg{
				Kind:    transport.KindUpdate,
				Round:   msg.Round,
				NodeID:  nc.ID,
				Version: msg.Version,
			}
			if msg.Codec != "" {
				// The reply mirrors the broadcast's mask: under a masked
				// downlink only the masked coordinates carry information
				// (the rest is the platform's own θ), so only they return.
				payload, eerr := upEnc.EncodeMasked(theta, wireMask)
				if eerr != nil {
					nl.report(msg.Round, nc.ID, eerr.Error())
					return fmt.Errorf("core: node %d encode update: %w", nc.ID, eerr)
				}
				reply.Codec, reply.Payload = msg.Codec, payload
			} else {
				reply.Params = theta.Clone()
			}
			if err := nl.send(reply); err != nil {
				return fmt.Errorf("core: node %d send update: %w", nc.ID, err)
			}
		default:
			return fmt.Errorf("%w: node %d got unexpected %v", ErrProtocol, nc.ID, msg.Kind)
		}
	}
}

// nodeState carries the across-round state of one node: the iteration
// counter, the adversarial dataset D_adv, the regeneration count r, and the
// reusable numeric buffers (one meta workspace plus the local θ and
// meta-gradient vectors) shared by all T0 steps of all rounds. Under a
// LocalRule the meta workspace gives way to the model's own, and the node
// keeps its full local dataset and, for RepShare, its head.
type nodeState struct {
	cfg   Config
	model nn.Model
	data  *data.NodeDataset
	id    int
	rand  *rng.Rand

	ws    *meta.Workspace
	theta tensor.Vec
	grad  tensor.Vec

	iter     int
	adv      []data.Sample
	advRound int // r in Algorithm 2

	nws        nn.Workspace
	all        []data.Sample // train ∪ test
	head       []codec.Range // RepShare: coordinates kept across rounds
	headSeeded bool          // RepShare: theta holds this node's head
}

// newNodeState builds the per-node state, sizing the reusable buffers for
// the model. cfg.Local must already be checked against m.
func newNodeState(cfg Config, m nn.Model, d *data.NodeDataset, id int) *nodeState {
	np := m.NumParams()
	n := &nodeState{
		cfg:   cfg,
		model: m,
		data:  d,
		id:    id,
		rand:  rng.New(cfg.Seed).Split(uint64(id) + 1),
		theta: tensor.NewVec(np),
		grad:  tensor.NewVec(np),
	}
	if cfg.Local == nil {
		n.ws = meta.NewWorkspace(m)
		return n
	}
	n.nws = m.NewWorkspace()
	n.all = d.All()
	if _, ok := cfg.Local.(RepShare); ok {
		n.head, _ = headRanges(m)
	}
	return n
}

// localUpdates performs `steps` local meta-updates starting from the
// received global parameters and returns the updated vector (Algorithm 1
// lines 6–13, Algorithm 2 lines 6–22), or runs the configured LocalRule.
// The step count is normally T0 but the platform may override it per round.
// round tags emitted observability events and does not influence the
// computation.
func (n *nodeState) localUpdates(global tensor.Vec, steps, round int) (tensor.Vec, error) {
	if len(global) != n.model.NumParams() {
		return nil, fmt.Errorf("core: node %d got %d params, model needs %d", n.id, len(global), n.model.NumParams())
	}
	if n.cfg.Local != nil {
		return n.ruleUpdates(global, steps)
	}
	theta := n.theta
	theta.CopyFrom(global)
	cfg := n.cfg
	for t := 0; t < steps; t++ {
		n.iter++
		train, test := n.data.Train, n.data.Test
		// phi aliases workspace memory: valid until the next ws call,
		// which is exactly the lifetime generateAdversarial needs.
		var phi tensor.Vec
		if cfg.Robust != nil {
			phi = n.ws.GradWithExtraInto(theta, train, test, n.adv, cfg.Alpha, cfg.GradMode, n.grad)
		} else {
			phi = n.ws.GradInto(theta, train, test, cfg.Alpha, cfg.GradMode, n.grad)
		}
		theta.Axpy(-cfg.Beta, n.grad)
		if !theta.IsFinite() {
			return nil, fmt.Errorf("core: node %d diverged at iteration %d (non-finite parameters)", n.id, n.iter)
		}
		if r := cfg.Robust; r != nil && n.iter%(r.N0*cfg.T0) == 0 && n.advRound < r.R {
			if err := n.generateAdversarial(phi, round); err != nil {
				return nil, err
			}
		}
	}
	return theta, nil
}

// generateAdversarial implements Algorithm 2 lines 15–22: sample |D_test|
// points uniformly from D_comb = D_test ∪ D_adv, run Ta steps of penalized
// gradient ascent on each under the current inner-adapted model φ, and
// append the results to D_adv.
func (n *nodeState) generateAdversarial(phi tensor.Vec, round int) error {
	r := n.cfg.Robust
	var genT0 time.Time
	if n.cfg.Observer != nil {
		genT0 = time.Now()
	}
	comb := make([]data.Sample, 0, len(n.data.Test)+len(n.adv))
	comb = append(comb, n.data.Test...)
	comb = append(comb, n.adv...)
	if len(comb) == 0 {
		return nil
	}
	pcfg := dro.PerturbConfig{
		Lambda:   r.Lambda,
		Nu:       r.Nu,
		Steps:    r.Ta,
		ClampMin: r.ClampMin,
		ClampMax: r.ClampMax,
	}
	fresh := make([]data.Sample, 0, len(n.data.Test))
	for j := 0; j < len(n.data.Test); j++ {
		s := comb[n.rand.IntN(len(comb))]
		adv, err := dro.Perturb(n.model, phi, s, n.data.Test, pcfg)
		if err != nil {
			return fmt.Errorf("core: node %d adversarial generation: %w", n.id, err)
		}
		fresh = append(fresh, adv)
	}
	n.adv = append(n.adv, fresh...)
	n.advRound++
	if n.cfg.Observer != nil {
		n.cfg.Observer.Observe(obs.Event{
			Type: obs.TypeAdvRegen, Round: round, Node: n.id,
			Dur: time.Since(genT0), Value: float64(len(fresh)),
		})
	}
	return nil
}
