package transport

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/edgeai/fedml/internal/rng"
)

// ErrInjected marks a fault manufactured by a Chaos link. Callers that
// retry transient failures (core.RunNode) treat it like any other link
// error; tests can errors.Is against it to tell injected faults from real
// ones.
var ErrInjected = fmt.Errorf("transport: injected fault")

// ChaosOp is one scripted fault action.
type ChaosOp int

const (
	// OpKill silences the link in both directions (a crashed or partitioned
	// node): outbound messages vanish, inbound messages are discarded.
	OpKill ChaosOp = iota + 1
	// OpRevive undoes OpKill; traffic flows again.
	OpRevive
	// OpPartitionToNode drops platform→node traffic only.
	OpPartitionToNode
	// OpPartitionFromNode drops node→platform traffic only.
	OpPartitionFromNode
	// OpHeal undoes both one-way partitions.
	OpHeal
	// OpCorrupt corrupts the payload of the next node→platform message.
	OpCorrupt
	// OpDrop silently discards the next node→platform message.
	OpDrop
	// OpSendErr makes the next platform→node Send fail with ErrInjected.
	OpSendErr
	// OpSlow sets a scripted per-link latency (ChaosEvent.Arg) added to
	// every delivered message from the firing round on — a straggler knob
	// independent of the uniform Latency/Jitter. Arg 0 clears it.
	OpSlow
)

var chaosOpNames = map[string]ChaosOp{
	"kill":      OpKill,
	"revive":    OpRevive,
	"part-send": OpPartitionToNode,
	"part-recv": OpPartitionFromNode,
	"heal":      OpHeal,
	"corrupt":   OpCorrupt,
	"drop":      OpDrop,
	"send-err":  OpSendErr,
	"slow":      OpSlow,
}

// String implements fmt.Stringer.
func (op ChaosOp) String() string {
	for name, o := range chaosOpNames {
		if o == op {
			return name
		}
	}
	return fmt.Sprintf("ChaosOp(%d)", int(op))
}

// ChaosEvent schedules Op to fire when the link first observes the given
// (1-based) protocol round on an outbound KindParams message.
type ChaosEvent struct {
	Round int
	Op    ChaosOp
	// Arg parameterizes ops that take a value: for OpSlow it is the
	// scripted per-link latency (0 clears it). Ignored by every other op.
	Arg time.Duration
}

// ChaosConfig parameterizes a Chaos link. The zero value injects nothing.
type ChaosConfig struct {
	// Seed drives the link's private random stream; two links built with the
	// same seed and config inject the same fault sequence.
	Seed uint64
	// DropProb is the probability that any delivered message (either
	// direction) is silently discarded.
	DropProb float64
	// CorruptProb is the probability that a node→platform payload is
	// corrupted (NaN/Inf injection, exponent bit-flip, or norm explosion).
	CorruptProb float64
	// Latency and Jitter delay every delivered message by
	// Latency + |N(0,1)|·Jitter.
	Latency time.Duration
	Jitter  time.Duration
	// Scenario scripts round-keyed faults ("node dies at round 5, returns
	// at round 9"). Events fire in round order.
	Scenario []ChaosEvent
}

// Chaos wraps the platform-side endpoint of a Link with deterministic,
// seeded fault injection: message drops, payload corruption, latency, and
// scripted send-error/kill/revive/partition scenarios. It tracks
// the protocol round from outbound KindParams messages, so scenarios are
// expressed in the same round numbers the training loop uses.
//
// Send is the platform→node direction and Recv the node→platform direction;
// wrap the node-side endpoint only for direction-agnostic faults.
type Chaos struct {
	inner Link
	cfg   ChaosConfig

	mu           sync.Mutex
	rand         *rng.Rand
	pending      []ChaosEvent // sorted by Round, unfired suffix
	killed       bool
	partToNode   bool
	partFromNode bool
	corruptNext  int
	dropNext     int
	sendErrNext  int
	slow         time.Duration // scripted per-link latency (OpSlow)

	// Stats count injected faults (under mu); useful for assertions.
	Dropped   int
	Corrupted int
	Errored   int
}

var _ Link = (*Chaos)(nil)

// NewChaos wraps inner with fault injection per cfg.
func NewChaos(inner Link, cfg ChaosConfig) *Chaos {
	c := &Chaos{
		inner: inner,
		cfg:   cfg,
		rand:  rng.New(cfg.Seed ^ 0xc4a05),
	}
	c.pending = append(c.pending, cfg.Scenario...)
	sort.SliceStable(c.pending, func(i, j int) bool { return c.pending[i].Round < c.pending[j].Round })
	return c
}

// observeRound fires every scripted event scheduled at or before round.
// Called with mu held.
func (c *Chaos) observeRound(round int) {
	if round <= 0 {
		return
	}
	for len(c.pending) > 0 && c.pending[0].Round <= round {
		ev := c.pending[0]
		c.pending = c.pending[1:]
		switch ev.Op {
		case OpKill:
			c.killed = true
		case OpRevive:
			c.killed = false
		case OpPartitionToNode:
			c.partToNode = true
		case OpPartitionFromNode:
			c.partFromNode = true
		case OpHeal:
			c.partToNode, c.partFromNode = false, false
		case OpCorrupt:
			c.corruptNext++
		case OpDrop:
			c.dropNext++
		case OpSendErr:
			c.sendErrNext++
		case OpSlow:
			c.slow = ev.Arg
		}
	}
}

// delay computes the next per-message latency. Called with mu held; the
// caller sleeps after releasing the lock.
func (c *Chaos) delay() time.Duration {
	if c.cfg.Latency <= 0 && c.cfg.Jitter <= 0 && c.slow <= 0 {
		return 0
	}
	d := c.cfg.Latency + c.slow
	if c.cfg.Jitter > 0 {
		d += time.Duration(math.Abs(c.rand.Norm()) * float64(c.cfg.Jitter))
	}
	return d
}

// Send implements Link (platform→node). Scripted events fire off the round
// numbers of outbound KindParams messages before any fault is applied, so a
// kill scheduled for round r suppresses the round-r broadcast itself.
func (c *Chaos) Send(m Msg) error {
	c.mu.Lock()
	if m.Kind == KindParams {
		c.observeRound(m.Round)
	}
	if c.sendErrNext > 0 {
		c.sendErrNext--
		c.Errored++
		c.mu.Unlock()
		return fmt.Errorf("chaos send: %w", ErrInjected)
	}
	drop := c.killed || c.partToNode ||
		(c.cfg.DropProb > 0 && c.rand.Float64() < c.cfg.DropProb)
	if drop {
		c.Dropped++
	}
	d := c.delay()
	c.mu.Unlock()

	if d > 0 {
		time.Sleep(d)
	}
	if drop {
		return nil // the message vanishes in the network
	}
	return c.inner.Send(m)
}

// Recv implements Link (node→platform). Messages arriving while the link is
// killed or partitioned are discarded, as a real network would lose them.
func (c *Chaos) Recv() (Msg, error) {
	for {
		m, err := c.inner.Recv()
		if err != nil {
			return Msg{}, err
		}
		c.mu.Lock()
		drop := c.killed || c.partFromNode || c.dropNext > 0 ||
			(c.cfg.DropProb > 0 && c.rand.Float64() < c.cfg.DropProb)
		if drop {
			if c.dropNext > 0 {
				c.dropNext--
			}
			c.Dropped++
			c.mu.Unlock()
			continue
		}
		corrupt := (len(m.Params) > 0 || len(m.Payload) > 0) &&
			(c.corruptNext > 0 || (c.cfg.CorruptProb > 0 && c.rand.Float64() < c.cfg.CorruptProb))
		if corrupt {
			if c.corruptNext > 0 {
				c.corruptNext--
			}
			if len(m.Params) > 0 {
				c.corruptPayload(m.Params)
			} else {
				c.corruptBytes(m.Payload)
			}
			c.Corrupted++
		}
		d := c.delay()
		c.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
		return m, nil
	}
}

// corruptPayload damages p in place with one of four wire-fault shapes: NaN
// injection, +Inf injection, an exponent bit-flip, or a norm explosion. The
// first two must be caught by the platform's finite check, the last two by
// the norm guard. Called with mu held.
func (c *Chaos) corruptPayload(p []float64) {
	k := c.rand.IntN(len(p))
	switch c.rand.IntN(4) {
	case 0:
		p[k] = math.NaN()
	case 1:
		p[k] = math.Inf(1)
	case 2:
		// Exponent stuck-at-one: sign and mantissa survive but the
		// magnitude saturates near the float64 maximum (~9e307), so the
		// value stays finite yet explodes any norm guard.
		p[k] = math.Float64frombits(math.Float64bits(p[k]) | 0x7FE0000000000000)
	default:
		for i := range p {
			p[i] *= 1e9
		}
	}
}

// corruptBytes damages an encoded (codec) payload in place: between one and
// eight random bit flips anywhere in the buffer, modeling the same wire
// faults on compressed traffic. The receiving codec must either reject the
// payload outright or decode values the sanitation guard then catches.
// Called with mu held.
func (c *Chaos) corruptBytes(p []byte) {
	flips := 1 + c.rand.IntN(8)
	for j := 0; j < flips; j++ {
		p[c.rand.IntN(len(p))] ^= 1 << c.rand.IntN(8)
	}
}

// Close implements Link.
func (c *Chaos) Close() error { return c.inner.Close() }

// Stats returns the injected-fault counters (dropped, corrupted, errored).
func (c *Chaos) Stats() (dropped, corrupted, errored int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Dropped, c.Corrupted, c.Errored
}

// ParseScenario parses a comma-separated chaos script of the form
// "<node>:<op>@<round>", e.g. "3:kill@5,3:revive@9,1:corrupt@4", into
// per-node event lists. Ops: kill, revive, part-send, part-recv, heal,
// corrupt, drop, send-err, slow. Ops that take an argument use
// "<node>:<op>=<arg>@<round>"; slow takes a time.ParseDuration latency,
// e.g. "2:slow=100ms@3" (and "2:slow=0s@9" clears it).
func ParseScenario(s string) (map[int][]ChaosEvent, error) {
	out := map[int][]ChaosEvent{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		node, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("transport: scenario %q: want <node>:<op>@<round>", part)
		}
		opToken, roundStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("transport: scenario %q: missing @<round>", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(node))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("transport: scenario %q: bad node index", part)
		}
		opName, argStr, hasArg := strings.Cut(opToken, "=")
		op, ok := chaosOpNames[strings.TrimSpace(opName)]
		if !ok {
			return nil, fmt.Errorf("transport: scenario %q: unknown op %q", part, opName)
		}
		var arg time.Duration
		switch {
		case op == OpSlow && !hasArg:
			return nil, fmt.Errorf("transport: scenario %q: slow needs a duration (slow=<dur>)", part)
		case op == OpSlow:
			arg, err = time.ParseDuration(strings.TrimSpace(argStr))
			if err != nil || arg < 0 {
				return nil, fmt.Errorf("transport: scenario %q: bad slow duration %q", part, argStr)
			}
		case hasArg:
			return nil, fmt.Errorf("transport: scenario %q: op %q takes no argument", part, opName)
		}
		r, err := strconv.Atoi(strings.TrimSpace(roundStr))
		if err != nil || r < 1 {
			return nil, fmt.Errorf("transport: scenario %q: bad round", part)
		}
		out[n] = append(out[n], ChaosEvent{Round: r, Op: op, Arg: arg})
	}
	return out, nil
}
