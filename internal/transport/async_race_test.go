package transport

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestAsyncCloseVsTryOps hammers TrySend/TryRecv from multiple goroutines
// while Close fires concurrently. Run under -race (make check) it verifies
// the pump teardown does not race with in-flight operations; in any mode it
// verifies nothing deadlocks or panics.
func TestAsyncCloseVsTryOps(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		p, n := Pair()
		a := NewAsync(p, 1)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(3)
		go func() { // peer echo until its link dies
			defer wg.Done()
			for {
				m, err := n.Recv()
				if err != nil {
					return
				}
				if n.Send(m) != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = a.TrySend(Msg{Kind: KindParams, Round: 1}, time.Millisecond)
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = a.TryRecv(time.Millisecond)
			}
		}()

		time.Sleep(time.Millisecond)
		_ = a.Close()
		_ = n.Close()
		close(stop)
		wg.Wait()

		// After Close every operation must fail fast, not hang.
		if err := a.TrySend(Msg{}, 10*time.Millisecond); err == nil {
			t.Fatal("TrySend succeeded on a closed Async")
		}
	}
}

// TestAsyncDoubleCloseConcurrent verifies Close is idempotent under
// concurrent invocation.
func TestAsyncDoubleCloseConcurrent(t *testing.T) {
	p, n := Pair()
	defer n.Close()
	a := NewAsync(p, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Close()
		}()
	}
	wg.Wait()
}

// TestAsyncDeepQueueUnderLatency drives an Async wrapper at queue depth 4
// over a chaos link with per-message latency: sends must pipeline (all four
// accepted without waiting out the per-message delay), every queued message
// must eventually be delivered in order, and nothing may be lost or
// duplicated. This is the transport posture the buffered-async platform loop
// relies on for straggler nodes.
func TestAsyncDeepQueueUnderLatency(t *testing.T) {
	const depth = 4
	p, n := Pair()
	chaos := NewChaos(p, ChaosConfig{Seed: 9, Latency: 20 * time.Millisecond})
	a := NewAsync(chaos, depth)
	defer a.Close()
	defer n.Close()
	go func() {
		for {
			m, err := n.Recv()
			if err != nil || m.Kind == KindDone {
				return
			}
			if n.Send(Msg{Kind: KindUpdate, Round: m.Round, NodeID: 0}) != nil {
				return
			}
		}
	}()

	start := time.Now()
	for r := 1; r <= depth; r++ {
		if err := a.TrySend(Msg{Kind: KindParams, Round: r, Params: []float64{1}}, time.Second); err != nil {
			t.Fatalf("queued send %d: %v", r, err)
		}
	}
	// Four sends into a depth-4 queue must not serialize on the 20ms
	// per-message latency (the pump owns the delay, not the caller).
	if queued := time.Since(start); queued > 15*time.Millisecond {
		t.Errorf("queueing %d sends took %v, want fast-path enqueue", depth, queued)
	}
	for r := 1; r <= depth; r++ {
		m, err := a.TryRecv(2 * time.Second)
		if err != nil {
			t.Fatalf("echo %d: %v", r, err)
		}
		if m.Round != r {
			t.Fatalf("echo out of order: got round %d, want %d", m.Round, r)
		}
	}
}

// TestAsyncDeepQueueCloseVsTryOps repeats the close-vs-ops hammer at queue
// depth 3 with chaos latency and jitter in the path, so teardown races
// against messages still sitting in the send queue and delay timers still
// pending inside the chaos pumps.
func TestAsyncDeepQueueCloseVsTryOps(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		p, n := Pair()
		chaos := NewChaos(p, ChaosConfig{
			Seed:    uint64(iter),
			Latency: 200 * time.Microsecond,
			Jitter:  200 * time.Microsecond,
		})
		a := NewAsync(chaos, 3)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(3)
		go func() { // peer echo until its link dies
			defer wg.Done()
			for {
				m, err := n.Recv()
				if err != nil {
					return
				}
				if n.Send(m) != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 1; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = a.TrySend(Msg{Kind: KindParams, Round: r}, time.Millisecond)
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = a.TryRecv(time.Millisecond)
			}
		}()

		time.Sleep(2 * time.Millisecond)
		_ = a.Close()
		_ = n.Close()
		close(stop)
		wg.Wait()

		if err := a.TrySend(Msg{}, 10*time.Millisecond); err == nil {
			t.Fatal("TrySend succeeded on a closed Async")
		}
		// TryRecv may still drain messages queued before the close; after the
		// queue empties it must fail, not hang.
		for i := 0; ; i++ {
			if _, err := a.TryRecv(10 * time.Millisecond); err != nil {
				break
			}
			if i > 3 { // queue depth is 3; anything more is a leak
				t.Fatal("TryRecv kept producing messages on a closed Async")
			}
		}
	}
}

// TestAsyncDoorbellDeliversAll shares one doorbell among several links whose
// peers send at random moments. A consumer that only drains every link with
// TryRecv(0) and sleeps on the doorbell must receive every message, in order
// per link: a ring always follows the enqueue it announces, and rings
// coalesce without being lost. A watchdog fails the test instead of hanging
// it on a missed wake.
func TestAsyncDoorbellDeliversAll(t *testing.T) {
	const links, perLink = 6, 60
	bell := make(chan struct{}, 1)
	asyncs := make([]*Async, links)
	peers := make([]Link, links)
	for i := range asyncs {
		p, n := Pair()
		asyncs[i], peers[i] = NewAsyncBell(p, 2, bell), n
	}
	defer func() {
		for i := range asyncs {
			_ = asyncs[i].Close()
			_ = peers[i].Close()
		}
	}()
	for i, n := range peers {
		go func(i int, n Link) {
			r := rand.New(rand.NewPCG(uint64(i), 1))
			for seq := 0; seq < perLink; seq++ {
				if d := r.IntN(300); d > 200 {
					time.Sleep(time.Duration(d-200) * 5 * time.Microsecond)
				}
				if n.Send(Msg{Kind: KindUpdate, NodeID: i, Round: seq}) != nil {
					return
				}
			}
		}(i, n)
	}

	next := make([]int, links)
	got := 0
	watchdog := time.NewTimer(10 * time.Second)
	defer watchdog.Stop()
	for got < links*perLink {
		for i, a := range asyncs {
			for {
				m, err := a.TryRecv(0)
				if err == ErrTimeout {
					break
				}
				if err != nil {
					t.Fatalf("link %d: %v", i, err)
				}
				if m.NodeID != i || m.Round != next[i] {
					t.Fatalf("link %d delivered node %d seq %d, want seq %d", i, m.NodeID, m.Round, next[i])
				}
				next[i]++
				got++
			}
		}
		if got == links*perLink {
			break
		}
		select {
		case <-bell:
		case <-watchdog.C:
			t.Fatalf("consumer stalled at %d of %d messages (per link %v): a ring was lost", got, links*perLink, next)
		}
	}
}

// TestAsyncTryRecvKeepsLastMessage: a peer that sends one message and closes
// at once must not lose it. The receive pump queues the message and then
// reports ErrClosed; both can be ready by the time TryRecv selects, and the
// message must come first. Odd iterations wait in TryRecv's select, even ones
// poll with TryRecv(0) until something other than ErrTimeout comes back.
// The window is narrow: a TryRecv that trusted the error lost 3 to 7 of these
// 20 000 messages a run under -race, which make check uses.
func TestAsyncTryRecvKeepsLastMessage(t *testing.T) {
	const iters = 20000
	lost := 0
	for i := 0; i < iters; i++ {
		p, n := Pair()
		a := NewAsync(p, 1)
		if err := n.Send(Msg{Kind: KindUpdate, Round: i}); err != nil {
			t.Fatal(err)
		}
		_ = n.Close()
		var m Msg
		var err error
		if i%2 == 1 {
			m, err = a.TryRecv(time.Second)
		} else {
			for m, err = a.TryRecv(0); err == ErrTimeout; m, err = a.TryRecv(0) {
				runtime.Gosched()
			}
		}
		switch {
		case err != nil:
			lost++
		case m.Round != i:
			t.Fatalf("iteration %d delivered round %d", i, m.Round)
		}
		_ = a.Close()
	}
	if lost > 0 {
		t.Errorf("TryRecv lost %d of %d messages sent just before the peer closed", lost, iters)
	}
}

// lendingLink hides the in-memory pipe's keepsReceived, so the receive pump
// copies every message it takes, as it does over TCP.
type lendingLink struct{ Link }

// TestAsyncSendFailureKeepsReply: a peer that replies and then closes while
// a platform send is pending must not lose its reply. The pending send fails
// as soon as the peer closes, while the receive pump may still be copying
// the reply it took; the send pump's error must not pre-empt it, and the
// receive pump's own error follows the reply. Odd iterations wait in
// TryRecv's select, even ones poll with TryRecv(0). A TryRecv that reported
// either pump's error lost most of these replies.
func TestAsyncSendFailureKeepsReply(t *testing.T) {
	const iters = 2000
	reply := make([]float64, 1<<14) // long enough that the copy takes a while
	lost := 0
	for i := 0; i < iters; i++ {
		p, n := Pair()
		a := NewAsync(lendingLink{p}, 1)
		// The peer never reads, so the send pump holds this message in a
		// blocked Send until the peer closes.
		if err := a.TrySend(Msg{Kind: KindParams, Round: i}, time.Second); err != nil {
			t.Fatal(err)
		}
		if err := n.Send(Msg{Kind: KindUpdate, Round: i, Params: reply}); err != nil {
			t.Fatal(err)
		}
		_ = n.Close()
		var m Msg
		var err error
		if i%2 == 1 {
			m, err = a.TryRecv(time.Second)
		} else {
			for m, err = a.TryRecv(0); err == ErrTimeout; m, err = a.TryRecv(0) {
				runtime.Gosched()
			}
		}
		switch {
		case err != nil:
			lost++
		case m.Round != i || len(m.Params) != len(reply):
			t.Fatalf("iteration %d delivered round %d with %d params", i, m.Round, len(m.Params))
		default:
			if _, err := a.TryRecv(time.Second); err != ErrClosed {
				t.Fatalf("iteration %d: after the reply TryRecv = %v, want the receive pump's ErrClosed", i, err)
			}
		}
		_ = a.Close()
	}
	if lost > 0 {
		t.Errorf("TryRecv lost %d of %d replies to a failed send", lost, iters)
	}
}
