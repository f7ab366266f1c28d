package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// This file is the link layer of the platform: everything that touches a
// node-facing transport.Link — broadcast, probe, gather, codec chains,
// suspect/rejoin bookkeeping — and the traffic billing that goes with it.
// The flat platform and the leaf shard aggregator both drive their node
// fleets through one linkSet, so the counter/event parity invariant (every
// CommStats mutation mirrored as exactly one obs.Event, see bill/markSuspect/
// rejoin/reject) holds for both by construction.

// linkOps is the per-node I/O under the shared round loop. The strict path
// makes direct blocking calls on the caller's links. The fault-tolerant path
// (wrapped non-nil) gives every link goroutine pumps and every operation a
// deadline, so dead or slow nodes cannot stall a round; links of dropped
// nodes stay open so the platform can re-probe and re-admit nodes that come
// back, and everything is closed by finish. Every pump of a link set rings
// the set's one doorbell, bell, after it queues a reply or records an error.
// Every fault-tolerant gather — barrier replies, async quorum, probes —
// sleeps on it between non-blocking sweeps (linkSet.sweep). Messages travel
// by pointer inside the link layer (a transport.Msg is 17 words and a round
// touches each one several times); only the transport.Link call itself
// copies. linkOps is a concrete type so those pointers stay on the stack.
type linkOps struct {
	links   []transport.Link
	wrapped []*transport.Async
	bell    chan struct{}
}

// send transmits *m with deadline d (strict: blocking, d unused). In
// fault-tolerant mode a d <= 0 only enqueues if there is room, without
// blocking.
func (o linkOps) send(i int, m *transport.Msg, d time.Duration) error {
	if o.wrapped != nil {
		return o.wrapped[i].TrySend(*m, d)
	}
	return o.links[i].Send(*m)
}

// recv waits up to d (strict: blocking) for a message and stores it in *m.
// In fault-tolerant mode a d <= 0 only checks, without blocking.
func (o linkOps) recv(i int, d time.Duration, m *transport.Msg) (err error) {
	if o.wrapped != nil {
		*m, err = o.wrapped[i].TryRecv(d)
	} else {
		*m, err = o.links[i].Recv()
	}
	return err
}

// finish releases the async pumps, if any. The pump of each link flagged in
// flush first writes what it queued, with one deadline, bound away, shared
// by the whole set; the other pumps close at once, dropping their queues.
func (o linkOps) finish(flush []bool, bound time.Duration) {
	deadline := time.Now().Add(bound)
	for i, w := range o.wrapped {
		if flush[i] {
			_ = w.Flush(deadline)
		}
		_ = w.Close()
	}
}

// linkSet owns the node-facing links of one aggregator (the whole federation
// for the flat platform, one contiguous shard for a leaf aggregator) and all
// per-link state: liveness, NodeID bindings, codec reference chains, and the
// traffic/fault accounting.
type linkSet struct {
	c       Config // normalized
	ops     linkOps
	ft      bool
	probeTO time.Duration
	logf    func(format string, args ...any)

	// base is the global node index of local link 0. Every reported index —
	// obs events, log lines, error strings — is base+i, so per-shard streams
	// stay distinguishable when merged. The flat platform uses base 0.
	base int

	alive    []bool
	aliveCnt int
	// expectID pins each link to the NodeID its first valid update claimed
	// (-1 until bound); boundBy is the reverse map. Together they reject
	// misrouted or duplicated updates that would otherwise aggregate
	// silently under the wrong weight.
	expectID []int
	boundBy  map[int]int

	stats CommStats
	// obs, when non-nil, mirrors every stats mutation as a structured
	// event (counter/event parity: the billing helpers below are the only
	// places either side changes).
	obs obs.RoundObserver

	// codecSpec/down/up hold the payload-path state when Config.Codec
	// selects a non-raw codec or a SyncMask is configured: one downlink
	// encoder and one uplink decoder per link (wrapped in codec.Masked so
	// structural masking composes with any inner compression), so stateful
	// codecs keep an independent reference chain per node. All three stay
	// nil/empty for raw unmasked runs, preserving the allocation-free Params
	// hot path.
	codecSpec string
	down      []*codec.Masked
	up        []*codec.Masked
	// chain[i] names the state of link i's downlink encoder: links with
	// equal ids hold bit-identical encoder state, so θ encoded for one of
	// them under one mask is the payload each of the others would emit. 0 is
	// the empty state of a fresh or reset encoder; every encode moves a link
	// to an id never used before (lastChain counts them). shared lists the
	// current dispatch's encodes, one per (state, mask) pair.
	chain     []uint64
	lastChain uint64
	shared    []sharedPayload

	// Sync-mask state, nil/empty unless c.SyncMask is set. maskReady[i]
	// records that link i has been sent a full payload this process
	// lifetime, the precondition for masked traffic (a resumed platform or
	// an escalated resync starts false). probeFails[i] counts consecutive
	// failed re-probes; at probeEscalation it clears maskReady so the next
	// probe carries a full payload — the recovery path for a node that lost
	// its scatter reference entirely. lastMasked[i] tracks the downlink's
	// last payload shape for TypeMaskSync transition events.
	maskReady  []bool
	probeFails []int
	lastMasked []bool

	// Fault-tolerant gather state, nil in strict mode. pending[i] is the
	// θ-version assigned to node i and not yet resolved (answered, written
	// off, or suspected); -1 means the node is free, as every node is
	// between barrier rounds. fresh marks the assignments dispatched in the
	// current round — the set the quorum is measured against. pollTO bounds
	// the async write-off's last poll of a link (async.go).
	pending []int
	fresh   []bool
	pollTO  time.Duration

	// sentBuf backs dispatch's sent list; it never outlives the round.
	sentBuf []int
}

// nodeRound is the per-round context the link-layer helpers share: what is
// being broadcast, and where vetted replies go.
type nodeRound struct {
	round, t0 int
	// ver is the θ-version stamped on every broadcast and probe and echoed
	// by the nodes; always 0 on the barrier path.
	ver       int
	theta     tensor.Vec
	thetaNorm float64
	// snap is the round's read-only copy of theta that every raw broadcast
	// and probe shares, cloned on first use; nil until then, and reset with
	// every new round (a retained snapshot must never change).
	snap tensor.Vec
	// accept receives every update that survived decode, the staleness bound
	// and sanitation, with its local link index and its staleness in
	// aggregations (0 on the barrier path).
	accept func(i int, u tensor.Vec, staleness int)
	// spare hands out a θ-sized vector to decode one delivered update into,
	// its own until the round's aggregation slots are cleared.
	spare func() tensor.Vec
}

// sharedPayload is one encode of a dispatch: the payload a link whose chain
// is in state from gets, masked or not, the state it leaves the link in, and
// the leader, the link that encoded it and holds that state for the links
// that follow it to copy.
type sharedPayload struct {
	from, to uint64
	masked   bool
	leader   int
	payload  []byte
}

// perLinkEncode turns the sharing off, so that every link encodes for
// itself. Only tests set it: per-link encoding is the oracle a shared
// payload must match byte for byte.
var perLinkEncode bool

// probeEscalation is the number of consecutive failed re-probes after which
// a masked run stops offering masked resyncs (inner chain restarts over the
// masked set — sufficient when the node kept its state through a transient
// fault) and sends one full unmasked payload instead (necessary when the
// node restarted and holds no reference to scatter into).
const probeEscalation = 2

// newLinkSet builds the link layer over node links whose global indices
// start at base. c must already be normalized and validated. The caller must
// ls.finish() when the run ends.
func newLinkSet(c Config, links []transport.Link, base int) *linkSet {
	ft := c.RoundTimeout > 0
	ops := linkOps{links: links}
	if ft {
		ops.wrapped = make([]*transport.Async, len(links))
		ops.bell = make(chan struct{}, 1)
		for i, l := range links {
			ops.wrapped[i] = transport.NewAsyncBell(l, 2, ops.bell)
		}
	}
	ls := &linkSet{
		c:        c,
		ops:      ops,
		ft:       ft,
		probeTO:  resolveProbeTimeout(c),
		logf:     c.logger(),
		base:     base,
		alive:    make([]bool, len(links)),
		aliveCnt: len(links),
		expectID: make([]int, len(links)),
		boundBy:  make(map[int]int, len(links)),
		sentBuf:  make([]int, 0, len(links)),
		obs:      c.Observer,
	}
	for i := range ls.alive {
		ls.alive[i] = true
		ls.expectID[i] = -1
	}
	if ft {
		ls.pending = make([]int, len(links))
		ls.fresh = make([]bool, len(links))
		for i := range ls.pending {
			ls.pending[i] = -1
		}
		// The bound of the async write-off's last poll (writeOffStale):
		// long enough for a reply already on its way to land, short enough
		// that each silent straggler written off costs the round little.
		ls.pollTO = min(max(c.RoundTimeout/64, 200*time.Microsecond), 2*time.Millisecond)
	}
	if (c.Codec != "" && c.Codec != codec.Raw) || c.SyncMask != nil {
		// One encoder/decoder pair per link: stateful codecs track each
		// node's reference chain independently. Validate caught bad specs.
		// Mask-only runs (no compression configured) still need the payload
		// path for the masked wire format, so they ride on the raw codec.
		spec := c.Codec
		if spec == "" {
			spec = codec.Raw
		}
		ls.codecSpec = spec
		ls.down = make([]*codec.Masked, len(links))
		ls.up = make([]*codec.Masked, len(links))
		for i := range links {
			di, _ := codec.New(spec)
			ui, _ := codec.New(spec)
			ls.down[i] = codec.NewMasked(di)
			ls.up[i] = codec.NewMasked(ui)
		}
		ls.chain = make([]uint64, len(links))
	}
	if c.SyncMask != nil {
		ls.maskReady = make([]bool, len(links))
		ls.probeFails = make([]int, len(links))
		ls.lastMasked = make([]bool, len(links))
	}
	return ls
}

// finish releases the I/O resources (async pumps in fault-tolerant mode).
// Alive links get what their pumps queued, the farewell Done of shutdown
// included, written before their links close; the whole set waits at most
// one RoundTimeout for it. A suspect's link closes at once, so a peer that
// never reads cannot hold finish.
func (ls *linkSet) finish() { ls.ops.finish(ls.alive, ls.c.RoundTimeout) }

// wireBytes is the billed size of a parameter-bearing message: the encoded
// payload when one is attached, 8 bytes per raw parameter otherwise.
func wireBytes(m *transport.Msg) int64 {
	if len(m.Payload) > 0 {
		return int64(len(m.Payload))
	}
	return int64(8 * len(m.Params))
}

// paramsMsg builds in *m the KindParams message carrying theta to link i.
// Raw runs ship the round's shared read-only snapshot of theta (see
// transport.Msg), cloned once per round rather than once per link; payload
// runs encode through link i's downlink encoder, once per distinct chain
// state (encodeDown). resync restarts the link's reference chains first, so
// the message is guaranteed to be a payload any decoder state can accept —
// the recovery offer sent with every probe. Under
// a sync mask that resync is itself masked (an inner full sync of the masked
// set only); the escalation to a full unmasked payload is driven by
// maskReady, cleared after probeEscalation consecutive failed probes.
func (ls *linkSet) paramsMsg(m *transport.Msg, rd *nodeRound, i int, resync bool) error {
	theta, round := rd.theta, rd.round
	*m = transport.Msg{Kind: transport.KindParams, Round: round, LocalSteps: rd.t0, Version: rd.ver}
	if ls.down == nil {
		if rd.snap == nil {
			rd.snap = theta.Clone()
		}
		m.Params = rd.snap
		return nil
	}
	if resync {
		ls.resyncLink(i)
	}
	mask := ls.c.SyncMask.maskFor(round)
	if mask != nil && !ls.maskReady[i] {
		// First payload on this link (fresh start, resumed platform, or an
		// escalated resync): only a full payload can establish the scatter
		// reference a masked payload needs.
		mask = nil
	}
	payload, err := ls.encodeDown(theta, i, mask)
	if err != nil {
		return fmt.Errorf("core: encode broadcast for node %d: %w", ls.base+i, err)
	}
	if ls.maskReady != nil {
		if mask == nil {
			ls.maskReady[i] = true
		}
		if masked := mask != nil; masked != ls.lastMasked[i] {
			ls.lastMasked[i] = masked
			if ls.obs != nil {
				cause := "full"
				if masked {
					cause = "masked"
				}
				ls.obs.Observe(obs.Event{Type: obs.TypeMaskSync, Round: round, Node: ls.base + i, Value: float64(codec.MaskLen(mask)), Cause: cause})
			}
		}
	}
	m.Codec = ls.codecSpec
	m.Payload = payload
	return nil
}

// encodeDown encodes theta for link i under mask. Within one dispatch θ is
// fixed, so the payload is a function of the link's chain state and the
// mask alone: the first link in a given (state, mask) encodes, and every
// later one takes the same payload — read-only and shared, like any
// KindParams message — and copies the leader's post-encode state, exactly
// as if it had encoded itself. In a fault-free round every link is in one
// state, and the round encodes once.
func (ls *linkSet) encodeDown(theta tensor.Vec, i int, mask []codec.Range) ([]byte, error) {
	from, masked := ls.chain[i], mask != nil
	for _, e := range ls.shared {
		// A leader that was reset since (a failed send) no longer holds the
		// state its followers need.
		if e.from == from && e.masked == masked && ls.chain[e.leader] == e.to && !perLinkEncode {
			ls.down[i].FollowEncoder(ls.down[e.leader])
			ls.chain[i] = e.to
			return e.payload, nil
		}
	}
	payload, err := ls.down[i].EncodeMasked(theta, mask)
	if err != nil {
		return nil, err
	}
	ls.lastChain++
	ls.chain[i] = ls.lastChain
	ls.shared = append(ls.shared, sharedPayload{from: from, to: ls.lastChain, masked: masked, leader: i, payload: payload})
	return payload, nil
}

// resyncLink drops link i's codec reference chains, forcing the next
// downlink message to be a full payload and priming the uplink decoder to
// accept the full reply it triggers. No-op for raw runs.
func (ls *linkSet) resyncLink(i int) {
	if ls.down == nil {
		return
	}
	ls.down[i].Reset()
	ls.chain[i] = 0
	ls.up[i].Reset()
}

// decodeUp expands the compressed update carried by msg through link i's
// uplink decoder into a spare vector of the round, filling msg.Params in
// place. Every failure wraps errDecode so the round loop can tell wire
// damage from protocol abuse.
//
// rd.theta is the platform's current global vector: masked payloads scatter
// into it, so the frozen coordinates of the decoded update are θ's
// bit-exactly. A full (unmasked) reply arriving while the mask is active —
// recovery traffic after an escalated resync, or a warmup-era straggler on
// the async path — is projected onto the mask for the same reason: under an
// active mask the accepted vector is always θ outside the mask and the
// node's values inside it, so frozen coordinates cannot drift no matter
// which payload shape delivered them.
func (ls *linkSet) decodeUp(i int, rd *nodeRound, msg *transport.Msg) error {
	if ls.up == nil || msg.Codec != ls.codecSpec {
		return fmt.Errorf("%w: node %d sent codec %q, platform expects %q", errDecode, ls.base+i, msg.Codec, ls.codecSpec)
	}
	theta := rd.theta
	params, wireRanges, err := ls.up[i].DecodeMaskedInto(msg.Payload, theta, rd.spare())
	if err != nil {
		return fmt.Errorf("%w: node %d: %v", errDecode, ls.base+i, err)
	}
	if mask := ls.c.SyncMask.maskFor(rd.round); mask != nil && wireRanges == nil && len(params) == len(theta) {
		projectMask(params, theta, mask)
	}
	msg.Params = params
	return nil
}

// errDecode marks a delivered update whose payload could not be decoded —
// wire corruption or a broken codec reference chain. Fault-tolerant rounds
// treat it like a sanitation reject (bill, discard, resync the link);
// strict rounds abort.
var errDecode = errors.New("core: undecodable update payload")

// bill accounts one parameter-bearing message of nBytes wire bytes on link
// node, mirrored as one event of type t. A downlink message (TypeBroadcast,
// TypeProbe) is billed on the attempted send — the transport cannot tell
// delivered from lost — an uplink one (TypeUpdate) on delivery; see
// CommStats.Messages.
func (ls *linkSet) bill(t obs.Type, node, round int, nBytes int64) {
	ls.stats.Messages++
	ls.stats.Bytes += nBytes
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: t, Round: round, Node: ls.base + node, Bytes: nBytes})
	}
}

// markSuspect removes node i from the active set. In fault-tolerant mode the
// link stays open and the node is re-probed every following round.
func (ls *linkSet) markSuspect(i, round int, cause error) {
	if !ls.alive[i] {
		return
	}
	ls.alive[i] = false
	ls.aliveCnt--
	ls.stats.Dropped++
	// The node may have missed any number of messages while unreachable, so
	// its codec reference chains are unusable until a full resync.
	ls.resyncLink(i)
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeDrop, Round: round, Node: ls.base + i, Alive: ls.aliveCnt, Cause: cause.Error()})
	}
	ls.logf("core: dropped node %d in round %d (%d alive): %v", ls.base+i, round, ls.aliveCnt, cause)
}

// markBudgetFiltered accounts a sampled node excluded from round because its
// modeled cost (joules) exceeded the energy budget. Like the other
// billing helpers, this is the only place counter or event side changes.
func (ls *linkSet) markBudgetFiltered(i, round int, joules float64) {
	ls.stats.BudgetFiltered++
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeBudgetFilter, Round: round, Node: ls.base + i, Value: joules})
	}
	ls.logf("core: node %d filtered from round %d by budget (modeled %.3g J)", ls.base+i, round, joules)
}

// probeFailed records one more unanswered (or undecodable) re-probe of
// suspect i. Under a sync mask, probeEscalation consecutive failures clear
// the link's maskReady flag: the masked resync offer was not enough, so the
// next probe carries a full unmasked payload that can rebuild the node's
// scatter reference from nothing.
func (ls *linkSet) probeFailed(i int) {
	if ls.probeFails == nil {
		return
	}
	ls.probeFails[i]++
	if ls.probeFails[i] >= probeEscalation {
		ls.maskReady[i] = false
		ls.probeFails[i] = 0
	}
}

// rejoin re-admits a suspect node that answered a re-probe.
func (ls *linkSet) rejoin(i, round int) {
	ls.alive[i] = true
	ls.aliveCnt++
	ls.stats.Rejoined++
	if ls.probeFails != nil {
		ls.probeFails[i] = 0
	}
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeRejoin, Round: round, Node: ls.base + i, Alive: ls.aliveCnt})
	}
	ls.logf("core: node %d rejoined in round %d (%d alive)", ls.base+i, round, ls.aliveCnt)
}

// markStaleApply accounts an update applied at positive staleness s with a
// decayed weight (async mode). Like the billing helpers above, this is the
// only place either the counter or the event side changes, so counter/event
// parity holds by construction.
func (ls *linkSet) markStaleApply(i, round, s int) {
	ls.stats.StaleApplied++
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeStaleApply, Round: round, Node: ls.base + i, Value: float64(s)})
	}
}

// markStaleDrop accounts an update discarded because its staleness exceeded
// the MaxStaleness drop bound (async mode).
func (ls *linkSet) markStaleDrop(i, round, s int) {
	ls.stats.StaleDropped++
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeStaleDrop, Round: round, Node: ls.base + i, Value: float64(s)})
	}
	ls.logf("core: dropped stale update from node %d in round %d (staleness %d > max %d)", ls.base+i, round, s, ls.c.MaxStaleness)
}

// bindNodeID validates the claimed NodeID of an update from link i against
// the binding learned from that link's first update.
func (ls *linkSet) bindNodeID(i, id int) error {
	if prev := ls.expectID[i]; prev >= 0 {
		if id != prev {
			return fmt.Errorf("%w: link %d update claims node %d, but the link is bound to node %d", ErrProtocol, ls.base+i, id, prev)
		}
		return nil
	}
	if other, taken := ls.boundBy[id]; taken && other != i {
		return fmt.Errorf("%w: node id %d claimed by links %d and %d (misrouted or duplicated update)", ErrProtocol, id, ls.base+other, ls.base+i)
	}
	ls.expectID[i] = id
	ls.boundBy[id] = i
	return nil
}

// errStaleRound marks a well-formed answer to an earlier round than the one
// being gathered, which the fault-tolerant sweep discards unbilled.
var errStaleRound = errors.New("core: stale round answer")

// vetUpdate validates msg, received from link i, as an update — protocol
// shape, codec decode (filling msg.Params in place), dimension, and NodeID
// binding. The reply must answer round, with one exception in each
// fault-tolerant mode. Async accepts an answer to any round or θ-version
// from a link with an assignment in flight, and settle weighs its
// staleness. Otherwise, in fault-tolerant mode, an answer to an earlier
// round fails undecoded with errStaleRound: decoding it would advance a
// reference chain the expected reply does not continue, and it is a late
// reply from a node that was dropped and is coming back. Any other round
// is a protocol violation. A decode failure wraps errDecode; msg still
// holds the wire bytes for the caller to bill. rd.theta is the current
// global vector masked payloads scatter into; its length is the expected
// update dimension.
func (ls *linkSet) vetUpdate(i int, rd *nodeRound, msg *transport.Msg) error {
	round, dim := rd.round, len(rd.theta)
	switch {
	case msg.Kind == transport.KindError:
		return fmt.Errorf("core: node %d failed in round %d: %s", msg.NodeID, round, msg.Err)
	case msg.Kind != transport.KindUpdate:
		return fmt.Errorf("%w: expected update, got %v from node %d", ErrProtocol, msg.Kind, ls.base+i)
	}
	if msg.Round != round && !(ls.c.Async && ls.pending[i] >= 0) {
		if ls.ft && msg.Round < round {
			return errStaleRound
		}
		return fmt.Errorf("%w: node %d answered round %d during round %d", ErrProtocol, ls.base+i, msg.Round, round)
	}
	if msg.Codec != "" || len(msg.Payload) > 0 {
		if err := ls.decodeUp(i, rd, msg); err != nil {
			return err
		}
		if len(msg.Params) != dim {
			return fmt.Errorf("%w: node %d payload decoded to %d params, want %d", errDecode, ls.base+i, len(msg.Params), dim)
		}
	} else if len(msg.Params) != dim {
		return fmt.Errorf("%w: node %d sent %d params, want %d", ErrProtocol, ls.base+i, len(msg.Params), dim)
	}
	return ls.bindNodeID(i, msg.NodeID)
}

// recvUpdate receives link i's next message into *msg, waiting up to d
// (strict: blocking; fault-tolerant d <= 0: not at all), and vets it as an
// update. Silence comes back as the bare transport.ErrTimeout: the sweep
// meets it on most links of every wake and never reports it, so it is not
// worth an allocated wrapping.
func (ls *linkSet) recvUpdate(msg *transport.Msg, i int, rd *nodeRound, d time.Duration) error {
	if err := ls.ops.recv(i, d, msg); err != nil {
		if err == transport.ErrTimeout {
			return err
		}
		return fmt.Errorf("core: gather round %d from node %d: %w", rd.round, ls.base+i, err)
	}
	return ls.vetUpdate(i, rd, msg)
}

// dispatch is the first half of a node-facing round: broadcast rd.theta
// (with step count rd.t0, stamped rd.ver) to the selected links and re-probe
// the suspects. It returns the links a broadcast went out to and the
// suspects a probe went out to; a link whose send failed is suspected
// (fault-tolerant mode) or aborts the run (strict mode). sent is the link
// set's reusable buffer, valid until the next dispatch.
//
// selected holds local link indices, already filtered to alive nodes. The
// suspect re-probe path runs regardless of selection — probing is liveness
// maintenance, not participation, so a suspect is probed exactly once per
// round whether or not the sampler would have picked it.
func (ls *linkSet) dispatch(rd *nodeRound, selected []int) (sent, probed []int, err error) {
	ls.sentBuf = ls.sentBuf[:0]
	clear(ls.shared)
	ls.shared = ls.shared[:0]
	for _, i := range selected {
		// theta is the caller's reusable aggregation buffer — and in
		// fault-tolerant mode the async pump may deliver the message after
		// this round's aggregation has overwritten it — so no broadcast
		// carries it: raw runs share the round's read-only snapshot,
		// payload runs a freshly encoded payload per chain state.
		var m transport.Msg
		if err := ls.paramsMsg(&m, rd, i, false); err != nil {
			return nil, nil, err
		}
		nBytes := wireBytes(&m)
		if err := ls.ops.send(i, &m, ls.c.RoundTimeout); err != nil {
			if ls.ft {
				ls.markSuspect(i, rd.round, err)
				continue
			}
			return nil, nil, fmt.Errorf("core: broadcast round %d to node %d: %w", rd.round, ls.base+i, err)
		}
		ls.sentBuf = append(ls.sentBuf, i)
		ls.bill(obs.TypeBroadcast, i, rd.round, nBytes)
	}
	if !ls.ft {
		return ls.sentBuf, nil, nil
	}
	// Re-probe suspects with the current θ: a dropped node that has
	// recovered answers like any other and rejoins in the probe sweep. Every
	// probe resyncs the link's codec chains first — an unanswered probe must
	// not advance the reference a revived node has never seen.
	for i := range ls.alive {
		if ls.alive[i] {
			continue
		}
		var m transport.Msg
		if err := ls.paramsMsg(&m, rd, i, true); err != nil {
			return nil, nil, err
		}
		nBytes := wireBytes(&m)
		// A probe does not wait for room in the send queue: a suspect whose
		// link still holds the messages queued for it has read none of
		// them, and waiting on each such link in turn would cost the round
		// one probeTO per silent node.
		if err := ls.ops.send(i, &m, 0); err != nil {
			continue
		}
		probed = append(probed, i)
		ls.bill(obs.TypeProbe, i, rd.round, nBytes)
	}
	return ls.sentBuf, probed, nil
}

// reject discards a delivered, already billed update — the one place the
// Rejected counter and its event change. An undecodable update (wire
// corruption or a broken reference chain) also forces a full resync of the
// link, so the next exchange re-establishes the chain; either way the node
// stays in the federation.
func (ls *linkSet) reject(i, round int, cause error) {
	ls.stats.Rejected++
	if ls.obs != nil {
		ls.obs.Observe(obs.Event{Type: obs.TypeReject, Round: round, Node: ls.base + i, Cause: cause.Error()})
	}
	if errors.Is(cause, errDecode) {
		ls.resyncLink(i)
	}
	ls.logf("core: rejected update from node %d in round %d: %v", ls.base+i, round, cause)
}

// settle closes one gather attempt on link i. In strict mode a failed
// attempt or a poisoned update is returned — the run aborts, and nothing is
// billed. Otherwise, unless the attempt failed outright, which suspects the
// node, an update arrived and is billed — it crossed the wire whether or not
// it survives. An undecodable one is then rejected; a decoded one is held to
// the staleness drop bound (async mode only — the barrier path never reads
// the version echo), then to sanitation, and handed to rd.accept with its
// staleness. The error is nil in fault-tolerant mode.
func (ls *linkSet) settle(i int, rd *nodeRound, msg *transport.Msg, err error) error {
	u := tensor.Vec(msg.Params)
	var poison error
	if err == nil {
		poison = sanitize(u, rd.theta, rd.thetaNorm, ls.c.GuardRadius)
	}
	if !ls.ft {
		if err != nil {
			return err
		}
		if poison != nil {
			return fmt.Errorf("core: node %d round %d: %v", ls.base+i, rd.round, poison)
		}
	}
	if err != nil && !errors.Is(err, errDecode) {
		ls.markSuspect(i, rd.round, err)
		return nil
	}
	ls.bill(obs.TypeUpdate, i, rd.round, wireBytes(msg))
	if err != nil {
		ls.reject(i, rd.round, err)
		return nil
	}
	s := 0
	if ls.c.Async {
		if s = rd.ver - msg.Version; s > ls.c.MaxStaleness {
			ls.markStaleDrop(i, rd.round, s)
			return nil
		}
	}
	if poison != nil {
		ls.reject(i, rd.round, poison)
		return nil
	}
	if s > 0 {
		ls.markStaleApply(i, rd.round, s)
	}
	rd.accept(i, u, s)
	return nil
}

// gatherRound is one node-facing round: dispatch rd.theta to the selected
// links that have no work in flight, gather and settle their replies, and
// re-admit the probed suspects that answer. Rejected updates are billed and
// counted but never reach rd.accept. A non-nil error means the run must
// abort (strict-mode failure, or the alive count fell below MinNodes).
//
// Strict mode receives from each sent link in index order, blocking; the
// link lends an accepted reply, which its slot keeps until the slots are
// cleared before the next dispatch (see transport.Msg). Fault-tolerant mode
// sweeps every link with work in flight under one RoundTimeout timer, then
// the probed suspects under one probeTO timer. Its two settings are how
// much of this round's dispatch ends the sweep (quorum) and whether a link
// still silent at the deadline is suspected or left in flight: the barrier
// is quorum 1 with suspicion, async is AsyncQuorum without (DESIGN.md §12).
func (ls *linkSet) gatherRound(rd *nodeRound, selected []int, quorum float64, suspectLate bool) error {
	free := selected[:0]
	for _, i := range selected {
		if !ls.ft || ls.pending[i] < 0 {
			free = append(free, i)
		}
	}
	sent, probed, err := ls.dispatch(rd, free)
	if err != nil {
		return err
	}
	if !ls.ft {
		for _, i := range sent {
			var msg transport.Msg
			err := ls.recvUpdate(&msg, i, rd, 0)
			if err := ls.settle(i, rd, &msg, err); err != nil {
				return err
			}
		}
	} else {
		clear(ls.fresh)
		for _, i := range sent {
			ls.pending[i] = rd.ver
			ls.fresh[i] = true
		}
		// Only this round's assignments count toward the quorum; with none,
		// any resolution ends the sweep.
		need, count := int(math.Ceil(quorum*float64(len(sent)))), ls.fresh
		if len(sent) == 0 {
			need, count = 1, nil
		}
		inFlight := sent[:0] // a superset of sent, built over it
		for i, v := range ls.pending {
			if v >= 0 {
				inFlight = append(inFlight, i)
			}
		}
		for _, i := range ls.sweep(rd, inFlight, need, count, false) {
			if suspectLate {
				ls.pending[i] = -1
				ls.markSuspect(i, rd.round, fmt.Errorf("core: gather round %d from node %d: no reply within the %v deadline: %w", rd.round, ls.base+i, ls.c.RoundTimeout, transport.ErrTimeout))
			}
		}
		for _, i := range ls.sweep(rd, probed, len(probed), nil, true) {
			ls.probeFailed(i) // still unreachable; stays suspect
		}
	}
	if min := max(ls.c.MinNodes, 1); ls.aliveCnt < min {
		return fmt.Errorf("core: only %d nodes alive, below MinNodes=%d", ls.aliveCnt, min)
	}
	return nil
}

// sweep waits for the links of set on the doorbell, under one timer: of
// probeTO for probed suspects (probe), of RoundTimeout otherwise. Each pass
// drains every link still in set with the timer-free TryRecv(0), discards
// answers to earlier rounds (errStaleRound) unbilled, and hands each other
// reply or link error to take; a link take resolves leaves set. Between
// passes the sweep sleeps on the doorbell or the timer. No wake is lost: a
// pump rings after it queues, so a reply that lands after a pass went by
// its link leaves the doorbell rung, and a pass drains each link because
// one ring can stand for several replies. The sweep ends when need links
// have resolved (only those with count[i] set count, unless count is nil),
// when set is empty, or at the deadline, which a link that keeps sending
// answers that resolve nothing cannot delay. It returns the links left
// unresolved, in set's order and array.
func (ls *linkSet) sweep(rd *nodeRound, set []int, need int, count []bool, probe bool) []int {
	if len(set) == 0 {
		return set
	}
	d := ls.c.RoundTimeout
	if probe {
		d = ls.probeTO
	}
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for {
		left := set[:0]
	links:
		for k, i := range set {
			for {
				var msg transport.Msg
				err := ls.recvUpdate(&msg, i, rd, 0)
				if err == transport.ErrTimeout {
					break // nothing queued; the doorbell rings when it is
				}
				if err == errStaleRound {
					ls.logf("core: discarding stale round-%d update from link %d during round %d", msg.Round, ls.base+i, rd.round)
				} else if ls.take(i, rd, &msg, err, probe) {
					if count == nil || count[i] {
						need--
					}
					continue links
				}
				select {
				case <-deadline.C:
					return append(left, set[k:]...)
				default:
				}
			}
			left = append(left, i)
		}
		set = left
		if len(set) == 0 || need <= 0 {
			return set
		}
		select {
		case <-ls.ops.bell:
		case <-deadline.C:
			return set
		}
	}
}

// take settles a reply or link error from link i and reports whether it
// resolved the link. A probed suspect (probe) is resolved either way: one
// whose reply survived vetting rejoins and settles it like any other; a
// link error or a reply that failed vetting is one more failed probe,
// unbilled. In the round sweep a reply resolves its link unless it answers
// an older async assignment, which leaves the node computing the current
// one.
func (ls *linkSet) take(i int, rd *nodeRound, msg *transport.Msg, err error, probe bool) bool {
	switch {
	case probe && err != nil:
		ls.probeFailed(i)
		return true
	case probe:
		ls.rejoin(i, rd.round)
		ls.settle(i, rd, msg, nil)
		return true
	}
	ls.settle(i, rd, msg, err)
	if err == nil && ls.c.Async && msg.Version != ls.pending[i] {
		return false
	}
	ls.pending[i] = -1
	return true
}

// shutdown tells every node training is over. Failures here are not drops —
// training is already complete — so they are logged under a named phase and
// excluded from the Dropped count. In fault-tolerant mode a send only
// queues the Done on the link's pump; finish sees it written.
func (ls *linkSet) shutdown() error {
	for i := range ls.alive {
		if !ls.alive[i] {
			if ls.ft {
				// Best-effort farewell so a node that revives later exits
				// cleanly instead of waiting for a round that never comes;
				// like a probe, it does not wait for room in the queue.
				_ = ls.ops.send(i, &transport.Msg{Kind: transport.KindDone}, 0)
			}
			continue
		}
		if err := ls.ops.send(i, &transport.Msg{Kind: transport.KindDone}, ls.c.RoundTimeout); err != nil {
			if ls.ft {
				ls.logf("core: shutdown: done to node %d failed: %v", ls.base+i, err)
				continue
			}
			return fmt.Errorf("core: done to node %d: %w", ls.base+i, err)
		}
	}
	return nil
}
