package transport

import (
	"errors"
	"math"
	"testing"
	"time"
)

// chaosStats reads c's injected-fault counters under its lock.
func chaosStats(c *Chaos) (dropped, corrupted, errored int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Dropped, c.Corrupted, c.Errored
}

// echoNode answers every KindParams message with a KindUpdate carrying the
// same round and params, until the link dies.
func echoNode(l Link, id int) {
	for {
		m, err := l.Recv()
		if err != nil || m.Kind == KindDone {
			return
		}
		if m.Kind != KindParams {
			continue
		}
		_ = l.Send(Msg{Kind: KindUpdate, Round: m.Round, NodeID: id, Params: m.Params})
	}
}

func TestChaosScenarioKillRevive(t *testing.T) {
	p, n := Pair()
	chaos := NewChaos(p, ChaosConfig{
		Seed:     7,
		Scenario: []ChaosEvent{{Round: 2, Op: OpKill}, {Round: 4, Op: OpRevive}},
	})
	a := NewAsync(chaos, 4)
	defer a.Close()
	defer n.Close()
	go echoNode(n, 0)

	send := func(round int) {
		t.Helper()
		if err := a.TrySend(Msg{Kind: KindParams, Round: round, Params: []float64{1}}, time.Second); err != nil {
			t.Fatalf("send round %d: %v", round, err)
		}
	}

	send(1)
	if m, err := a.TryRecv(time.Second); err != nil || m.Round != 1 {
		t.Fatalf("round 1 echo: %v %+v", err, m)
	}
	// Rounds 2 and 3 fall inside the kill window: broadcasts vanish, no
	// echo comes back.
	send(2)
	send(3)
	if _, err := a.TryRecv(100 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected silence during kill window, got err=%v", err)
	}
	// Round 4 fires the revive and flows through again.
	send(4)
	if m, err := a.TryRecv(time.Second); err != nil || m.Round != 4 {
		t.Fatalf("round 4 echo after revive: %v %+v", err, m)
	}
	if dropped, _, _ := chaosStats(chaos); dropped < 2 {
		t.Errorf("dropped = %d, want >= 2", dropped)
	}
}

func TestChaosScenarioCorrupt(t *testing.T) {
	p, n := Pair()
	chaos := NewChaos(p, ChaosConfig{
		Seed:     11,
		Scenario: []ChaosEvent{{Round: 1, Op: OpCorrupt}},
	})
	defer chaos.Close()
	defer n.Close()
	go echoNode(n, 0)

	orig := []float64{1, 2, 3, 4}
	if err := chaos.Send(Msg{Kind: KindParams, Round: 1, Params: append([]float64(nil), orig...)}); err != nil {
		t.Fatal(err)
	}
	m, err := chaos.Recv()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, v := range m.Params {
		if v != orig[i] {
			same = false
		}
	}
	if same {
		t.Errorf("payload not corrupted: %v", m.Params)
	}
	if _, corrupted, _ := chaosStats(chaos); corrupted != 1 {
		t.Errorf("corrupted = %d, want 1", corrupted)
	}
}

func TestChaosCorruptionShapesAreRejectable(t *testing.T) {
	// Every corruption mode must either break finiteness or blow up the
	// distance from the original vector, so the platform guard can always
	// catch it.
	c := NewChaos(nil, ChaosConfig{Seed: 3})
	for trial := 0; trial < 64; trial++ {
		p := []float64{0.5, -0.25, 1.5, 0}
		c.corruptPayload(p)
		finite := true
		var dist float64
		orig := []float64{0.5, -0.25, 1.5, 0}
		for i, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
			dist += (v - orig[i]) * (v - orig[i])
		}
		if finite && math.Sqrt(dist) < 1e3 {
			t.Fatalf("trial %d: corruption %v neither non-finite nor norm-exploding", trial, p)
		}
	}
}

func TestChaosDropProbOne(t *testing.T) {
	p, n := Pair()
	chaos := NewChaos(p, ChaosConfig{Seed: 5, DropProb: 1})
	defer chaos.Close()
	defer n.Close()

	received := make(chan Msg, 8)
	go func() {
		for {
			m, err := n.Recv()
			if err != nil {
				close(received)
				return
			}
			received <- m
		}
	}()
	for r := 1; r <= 5; r++ {
		if err := chaos.Send(Msg{Kind: KindParams, Round: r}); err != nil {
			t.Fatalf("send %d: %v", r, err)
		}
	}
	chaos.Close()
	for m := range received {
		t.Errorf("message leaked through DropProb=1: %+v", m)
	}
	if dropped, _, _ := chaosStats(chaos); dropped != 5 {
		t.Errorf("dropped = %d, want 5", dropped)
	}
}

func TestChaosInjectedSendError(t *testing.T) {
	p, n := Pair()
	chaos := NewChaos(p, ChaosConfig{Seed: 2, Scenario: []ChaosEvent{{Round: 1, Op: OpSendErr}}})
	defer chaos.Close()
	defer n.Close()

	err := chaos.Send(Msg{Kind: KindParams, Round: 1})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// The fault is transient: the very next send works.
	go func() { _, _ = n.Recv() }()
	if err := chaos.Send(Msg{Kind: KindParams, Round: 1}); err != nil {
		t.Fatalf("send after injected error: %v", err)
	}
}

func TestChaosOneWayPartition(t *testing.T) {
	p, n := Pair()
	chaos := NewChaos(p, ChaosConfig{
		Seed:     9,
		Scenario: []ChaosEvent{{Round: 2, Op: OpPartitionFromNode}, {Round: 3, Op: OpHeal}},
	})
	a := NewAsync(chaos, 4)
	defer a.Close()
	defer n.Close()
	go echoNode(n, 0)

	// Round 2: the broadcast reaches the node, but its answer is lost.
	if err := a.TrySend(Msg{Kind: KindParams, Round: 2, Params: []float64{1}}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := a.TryRecv(100 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("update crossed a from-node partition: err=%v", err)
	}
	// Round 3 heals: traffic flows both ways again.
	if err := a.TrySend(Msg{Kind: KindParams, Round: 3, Params: []float64{1}}, time.Second); err != nil {
		t.Fatal(err)
	}
	if m, err := a.TryRecv(time.Second); err != nil || m.Round != 3 {
		t.Fatalf("echo after heal: %v %+v", err, m)
	}
}

func TestChaosDeterminism(t *testing.T) {
	// Two identically-seeded links make identical drop decisions.
	run := func() []bool {
		p, n := Pair()
		defer n.Close()
		chaos := NewChaos(p, ChaosConfig{Seed: 42, DropProb: 0.5})
		defer chaos.Close()
		go func() {
			for {
				if _, err := n.Recv(); err != nil {
					return
				}
			}
		}()
		var dropped []bool
		for r := 1; r <= 32; r++ {
			before, _, _ := chaosStats(chaos)
			if err := chaos.Send(Msg{Kind: KindParams, Round: r}); err != nil {
				t.Fatal(err)
			}
			after, _, _ := chaosStats(chaos)
			dropped = append(dropped, after > before)
		}
		return dropped
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop sequences diverge at message %d: %v vs %v", i, a, b)
		}
	}
}

func TestParseScenario(t *testing.T) {
	events, err := ParseScenario("3:kill@5, 3:revive@9 ,1:corrupt@4")
	if err != nil {
		t.Fatal(err)
	}
	if len(events[3]) != 2 || events[3][0] != (ChaosEvent{Round: 5, Op: OpKill}) || events[3][1] != (ChaosEvent{Round: 9, Op: OpRevive}) {
		t.Errorf("node 3 events = %+v", events[3])
	}
	if len(events[1]) != 1 || events[1][0] != (ChaosEvent{Round: 4, Op: OpCorrupt}) {
		t.Errorf("node 1 events = %+v", events[1])
	}
	if got, _ := ParseScenario("  "); len(got) != 0 {
		t.Errorf("empty scenario parsed to %+v", got)
	}
	for _, bad := range []string{"kill@5", "3:kill", "3:zap@5", "x:kill@5", "3:kill@0", "3:kill@x"} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted", bad)
		}
	}
}

func TestChaosLatency(t *testing.T) {
	p, n := Pair()
	chaos := NewChaos(p, ChaosConfig{Seed: 1, Latency: 30 * time.Millisecond})
	defer chaos.Close()
	defer n.Close()
	go echoNode(n, 0)

	start := time.Now()
	if err := chaos.Send(Msg{Kind: KindParams, Round: 1, Params: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("round trip took %v, want >= 60ms (two injected delays)", elapsed)
	}
}

func TestParseScenarioSlow(t *testing.T) {
	events, err := ParseScenario("2:slow=40ms@3,2:slow=0s@8")
	if err != nil {
		t.Fatal(err)
	}
	want := []ChaosEvent{
		{Round: 3, Op: OpSlow, Arg: 40 * time.Millisecond},
		{Round: 8, Op: OpSlow, Arg: 0},
	}
	if len(events[2]) != 2 || events[2][0] != want[0] || events[2][1] != want[1] {
		t.Errorf("node 2 events = %+v, want %+v", events[2], want)
	}
	for _, bad := range []string{
		"2:slow@3",          // slow needs a duration argument
		"2:slow=@3",         // empty duration
		"2:slow=banana@3",   // unparseable duration
		"2:slow=-10ms@3",    // negative duration
		"2:kill=40ms@3",     // arg on an op that takes none
		"2:corrupt=cksum@3", // arg on an op that takes none
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted", bad)
		}
	}
}

// TestChaosScenarioSlow checks that a scripted slow op injects per-message
// latency from its round onward and that slow=0s clears it again.
func TestChaosScenarioSlow(t *testing.T) {
	p, n := Pair()
	chaos := NewChaos(p, ChaosConfig{
		Seed: 5,
		Scenario: []ChaosEvent{
			{Round: 2, Op: OpSlow, Arg: 25 * time.Millisecond},
			{Round: 3, Op: OpSlow, Arg: 0},
		},
	})
	defer chaos.Close()
	defer n.Close()
	go echoNode(n, 0)

	rtt := func(round int) time.Duration {
		t.Helper()
		start := time.Now()
		if err := chaos.Send(Msg{Kind: KindParams, Round: round, Params: []float64{1}}); err != nil {
			t.Fatalf("send round %d: %v", round, err)
		}
		if _, err := chaos.Recv(); err != nil {
			t.Fatalf("recv round %d: %v", round, err)
		}
		return time.Since(start)
	}

	if d := rtt(1); d > 20*time.Millisecond {
		t.Errorf("round 1 (before slow) took %v", d)
	}
	// Round 2 triggers the slowdown: outbound and echo both delayed.
	if d := rtt(2); d < 50*time.Millisecond {
		t.Errorf("round 2 (slow=25ms) took %v, want >= 50ms", d)
	}
	// Round 3 clears it.
	if d := rtt(3); d > 20*time.Millisecond {
		t.Errorf("round 3 (after slow=0s) took %v", d)
	}
}
