package core

import (
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// countingConn counts the bytes crossing a net.Conn in both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// trainOverTCP is Train with every node behind a loopback TCP link instead of
// an in-memory pair. Nodes connect one at a time, so link i is node i and the
// aggregation order matches Train's. It also returns the bytes that crossed
// the platform's sockets.
func trainOverTCP(t *testing.T, m nn.Model, fed *data.Federation, theta0 tensor.Vec, cfg Config) (tensor.Vec, CommStats, int64) {
	t.Helper()
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var socket atomic.Int64
	links := make([]transport.Link, len(fed.Sources))
	nodeErrs := make(chan error, len(fed.Sources))
	for i, nd := range fed.Sources {
		node, err := transport.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		links[i] = transport.NewConnLink(countingConn{conn, &socket})
		go func(i int, nd *data.NodeDataset) {
			defer node.Close()
			nodeErrs <- RunNode(node, NodeConfig{ID: i, Model: m, Data: nd, Shared: cfg})
		}(i, nd)
	}
	theta, stats, err := RunPlatform(links, fed.Weights(), theta0, cfg)
	for _, l := range links {
		l.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	for range fed.Sources {
		if err := <-nodeErrs; err != nil {
			t.Fatal(err)
		}
	}
	return theta, stats, socket.Load()
}

// wireSize is what one message costs on a TCP link, measured from outside.
func wireSize(t *testing.T, m transport.Msg) int64 {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var n atomic.Int64
	go func() { _, _ = transport.NewConnLink(b).Recv() }()
	if err := transport.NewConnLink(countingConn{a, &n}).Send(m); err != nil {
		t.Fatal(err)
	}
	return n.Load()
}

func sameBits(t *testing.T, ctx string, got, want tensor.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: θ[%d] = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	// The same Algorithm 1 code must run over real TCP links — and, floats
	// crossing the wire as their bits, reach the very θ it reaches in memory.
	fed := tinyFederation(t, 0, 0)
	// Use a subset of nodes to keep the socket count small.
	fed.Sources = fed.Sources[:4]
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1}
	theta0 := m.InitParams(rng.New(1))

	theta, stats, _ := trainOverTCP(t, m, fed, theta0, cfg)
	if !theta.IsFinite() {
		t.Error("TCP-trained θ not finite")
	}
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", stats.Rounds)
	}
	before := eval.GlobalMetaObjective(m, fed, cfg.Alpha, theta0)
	after := eval.GlobalMetaObjective(m, fed, cfg.Alpha, theta)
	if after >= before {
		t.Errorf("TCP run did not reduce G(θ): %v -> %v", before, after)
	}

	mem, err := Train(m, fed, theta0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "TCP vs in-memory links", theta, mem.Theta)
	if stats != mem.Comm {
		t.Errorf("TCP run billed %+v, in-memory run %+v", stats, mem.Comm)
	}
}

// TestFaultTolerantTCPNodesExitClean: a fault-tolerant platform hands its
// farewell KindDone to the asynchronous send pump of each link; teardown
// must let the pump write it before the socket closes, so every node reads
// Done and returns nil instead of a closed-link error. trainOverTCP fails
// the test on any node error.
func TestFaultTolerantTCPNodesExitClean(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1, RoundTimeout: 2 * time.Second}
	theta, stats, _ := trainOverTCP(t, m, fed, m.InitParams(rng.New(1)), cfg)
	if !theta.IsFinite() || stats.Rounds != 2 || stats.Dropped != 0 {
		t.Errorf("θ finite %v, %d rounds, %d dropped; want finite, 2, 0", theta.IsFinite(), stats.Rounds, stats.Dropped)
	}
}

// TestTCPSocketBytesAreBilledBytesPlusFraming: what the platform's sockets
// carry is what CommStats bills plus the fixed framing of each message, to
// the byte — raw vectors and compressed, masked payloads alike.
func TestTCPSocketBytesAreBilledBytesPlusFraming(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	mlp, mask := headMLP(t, fed, 2)
	for name, tc := range map[string]struct {
		m   nn.Model
		cfg Config
	}{
		"raw":         {tinyModel(fed), Config{Alpha: 0.01, Beta: 0.01, T: 30, T0: 5, Seed: 1}},
		"topk+head:2": {mlp, Config{Alpha: 0.01, Beta: 0.01, T: 30, T0: 5, Seed: 1, Codec: "topk", SyncMask: mask}},
	} {
		theta0 := tc.m.InitParams(rng.New(1))
		theta, stats, socket := trainOverTCP(t, tc.m, fed, theta0, tc.cfg)

		// Every billed message carries the codec tag; the run ends with one
		// unbilled KindDone per node.
		perMsg := wireSize(t, transport.Msg{Kind: transport.KindParams, Codec: tc.cfg.Codec})
		done := wireSize(t, transport.Msg{Kind: transport.KindDone})
		want := stats.Bytes + int64(stats.Messages)*perMsg + int64(len(fed.Sources))*done
		if socket != want {
			t.Errorf("%s: sockets carried %d bytes, want %d billed + %d messages x %d + %d done x %d = %d",
				name, socket, stats.Bytes, stats.Messages, perMsg, len(fed.Sources), done, want)
		}

		mem, err := Train(tc.m, fed, theta0, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, name+": TCP vs in-memory links", theta, mem.Theta)
	}
}
