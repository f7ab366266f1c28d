package core

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// payloadLink records every KindParams message the platform sends on one
// link, payload slice included (broadcast payloads are read-only, so the
// record stays valid).
type payloadLink struct {
	transport.Link
	mu   sync.Mutex
	sent []transport.Msg
}

func (l *payloadLink) Send(m transport.Msg) error {
	if m.Kind == transport.KindParams {
		l.mu.Lock()
		l.sent = append(l.sent, m)
		l.mu.Unlock()
	}
	return l.Link.Send(m)
}

// TestSharedBroadcastMatchesPerLinkEncode is the oracle test of the shared
// broadcast: the platform encodes θ once per distinct (downlink chain state,
// mask) and hands that payload to every link in the state, and a run doing
// so must be indistinguishable from one where every link encodes for itself
// — the same payload bytes on every link in every round, the same final θ
// bit for bit, the same CommStats. The cases split the chains every way the
// link layer can: masks and the warmup→masked transition (head:2), sampling
// (participation 0.5, so followers later lead), a dropped update and a
// kill/revive (probes resync to the empty state, escalation unmasks), and the
// async gather.
func TestSharedBroadcastMatchesPerLinkEncode(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:6]
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 8, fed.NumClasses}, L2: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	head2, err := ResolveSyncMask("head:2", m)
	if err != nil {
		t.Fatal(err)
	}
	faults := map[int][]transport.ChaosEvent{
		1: {{Round: 3, Op: transport.OpDrop}},
		2: {{Round: 2, Op: transport.OpKill}, {Round: 5, Op: transport.OpRevive}},
	}
	ft := 300 * time.Millisecond
	cases := []struct {
		name   string
		cfg    Config
		faults map[int][]transport.ChaosEvent
		// oneEncode: every round's broadcasts share one payload.
		oneEncode bool
	}{
		{name: "topk", cfg: Config{Codec: "topk"}, oneEncode: true},
		{name: "topk/head:2", cfg: Config{Codec: "topk", SyncMask: head2}, oneEncode: true},
		{name: "q8/head:2", cfg: Config{Codec: "q8", SyncMask: head2}, oneEncode: true},
		{name: "raw/head:2", cfg: Config{SyncMask: head2}, oneEncode: true},
		{name: "topk/participation", cfg: Config{Codec: "topk", Participation: 0.5}},
		{name: "topk/head:2/participation/faults", cfg: Config{Codec: "topk", SyncMask: head2, Participation: 0.5, RoundTimeout: ft}, faults: faults},
		{name: "q8/faults", cfg: Config{Codec: "q8", RoundTimeout: ft}, faults: faults},
		{name: "topk/head:2/async", cfg: Config{Codec: "topk", SyncMask: head2, Async: true, RoundTimeout: 2 * time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(perLink bool) (*Result, []*payloadLink) {
				perLinkEncode = perLink
				defer func() { perLinkEncode = false }()
				recs := make([]*payloadLink, len(fed.Sources))
				cfg := tc.cfg
				cfg.Alpha, cfg.Beta, cfg.T, cfg.T0, cfg.Seed = 0.01, 0.01, 40, 5, 3
				cfg.WrapLink = func(i int, l transport.Link) transport.Link {
					if sc := tc.faults[i]; sc != nil {
						l = transport.NewChaos(l, transport.ChaosConfig{Seed: 50 + uint64(i), Scenario: sc})
					}
					recs[i] = &payloadLink{Link: l}
					return recs[i]
				}
				res, err := Train(m, fed, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, recs
			}
			oracle, oracleRecs := run(true)
			shared, sharedRecs := run(false)

			sameBits(t, "θ with shared encodes against per-link encodes", shared.Theta, oracle.Theta)
			if shared.Comm != oracle.Comm {
				t.Fatalf("CommStats %+v with shared encodes, %+v with per-link encodes", shared.Comm, oracle.Comm)
			}
			if tc.faults != nil && (shared.Comm.Dropped == 0 || shared.Comm.Rejoined == 0) {
				t.Fatalf("the faults did not exercise drop and rejoin: %+v", shared.Comm)
			}
			byRound := map[int]map[*byte]bool{}
			for i := range sharedRecs {
				got, want := sharedRecs[i].sent, oracleRecs[i].sent
				if len(got) != len(want) {
					t.Fatalf("link %d: %d broadcasts with shared encodes, %d with per-link encodes", i, len(got), len(want))
				}
				for k := range got {
					g, w := got[k], want[k]
					if g.Round != w.Round || g.Version != w.Version || g.LocalSteps != w.LocalSteps || g.Codec != w.Codec || !bytes.Equal(g.Payload, w.Payload) {
						t.Fatalf("link %d, message %d (round %d): shared payload differs from the per-link encode", i, k, w.Round)
					}
					if byRound[g.Round] == nil {
						byRound[g.Round] = map[*byte]bool{}
					}
					byRound[g.Round][&g.Payload[0]] = true
				}
			}
			if tc.oneEncode {
				for round, payloads := range byRound {
					if len(payloads) != 1 {
						t.Errorf("round %d: %d distinct payloads, want one encode shared by every link", round, len(payloads))
					}
				}
			}
		})
	}
}

// TestAsyncSecondReplyKeepsAcceptedSlot covers the one way a recycled decode
// vector could corrupt an aggregate: the async sweep settles two replies from
// one link in one round (the node answers an older assignment, then its
// current one), the first is accepted into the link's slot, and the second
// is decoded and then rejected — here by the norm guard, as a chaos-corrupted
// payload that still decodes would be. The second decode must land in a
// vector of its own, so the slot keeps the first reply bit for bit.
func TestAsyncSecondReplyKeepsAcceptedSlot(t *testing.T) {
	const dim = 300
	c := Config{
		Alpha: 0.01, Beta: 0.01, T: 10, T0: 1, Codec: "q8",
		Async: true, RoundTimeout: 2 * time.Second, AsyncQuorum: 1,
		MaxStaleness: 2, StalenessDecay: 0.5, GuardRadius: 1,
	}
	c = c.normalized()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	plat, node := transport.Pair()
	ns, err := newNodeSource(c, []transport.Link{plat}, []float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.ls.finish()
	if err := ns.size(dim); err != nil {
		t.Fatal(err)
	}
	theta := tensor.NewVec(dim)
	good, poison := tensor.NewVec(dim), tensor.NewVec(dim)
	for i := range theta {
		theta[i] = math.Sin(float64(i))
		good[i] = theta[i] + 0.01*math.Cos(float64(i))
		poison[i] = theta[i] + 1e6
	}
	encode := func(v tensor.Vec) []byte {
		q8, _ := codec.New("q8")
		p, err := q8.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	q8, _ := codec.New("q8")
	want, err := q8.Decode(encode(good))
	if err != nil {
		t.Fatal(err)
	}

	// The link's node holds the assignment of θ-version 3 at version 4 and
	// delivers late: first its answer to version 2 (stale by 2, within the
	// bound), then its answer to version 3.
	ns.ls.pending[0] = 3
	ns.ls.stats.Rounds = 4
	replies := []transport.Msg{
		{Kind: transport.KindUpdate, Round: 2, Version: 2, Codec: "q8", Payload: encode(good)},
		{Kind: transport.KindUpdate, Round: 3, Version: 3, Codec: "q8", Payload: encode(poison)},
	}
	go func() {
		for _, m := range replies {
			if node.Send(m) != nil {
				return
			}
		}
	}()
	if _, _, count, err := ns.collect(5, 1, theta); err != nil || count != 1 {
		t.Fatalf("collect: %d updates, err %v; want the first reply alone", count, err)
	}
	if st := ns.ls.stats; st.StaleApplied != 1 || st.Rejected != 1 {
		t.Fatalf("stats %+v, want the first reply applied stale and the second rejected", st)
	}
	// A rejected reply that overwrote the slot fails here.
	sameBits(t, "the slot against the accepted reply", ns.agg.slots[0], tensor.Vec(want))
}
