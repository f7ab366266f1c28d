package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAsyncRoundTrip(t *testing.T) {
	p, n := Pair()
	a := NewAsync(p, 2)
	defer a.Close()
	defer n.Close()

	go func() {
		m, err := n.Recv()
		if err != nil {
			return
		}
		m.Round++
		_ = n.Send(m)
	}()

	if err := a.TrySend(Msg{Kind: KindParams, Round: 1}, time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := a.TryRecv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 2 {
		t.Errorf("round = %d, want 2", got.Round)
	}
}

func TestAsyncRecvTimeoutOnSilentPeer(t *testing.T) {
	p, n := Pair()
	a := NewAsync(p, 1)
	defer a.Close()
	defer n.Close()

	start := time.Now()
	_, err := a.TryRecv(30 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestAsyncSendTimeoutWhenPeerNotReceiving(t *testing.T) {
	p, n := Pair()
	a := NewAsync(p, 1)
	defer a.Close()
	defer n.Close()

	// First send fills the queue (pump blocks on the unbuffered pipe since
	// the peer never calls Recv); second send must time out.
	if err := a.TrySend(Msg{Round: 1}, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadlineHit := false
	for i := 0; i < 3; i++ {
		if err := a.TrySend(Msg{Round: 2 + i}, 30*time.Millisecond); errors.Is(err, ErrTimeout) {
			deadlineHit = true
			break
		}
	}
	if !deadlineHit {
		t.Error("sends to a non-receiving peer never timed out")
	}
}

// Flush returns once the pump has written everything queued, so a Close
// right after it drops nothing; against a peer that never reads it gives up
// at the deadline instead.
func TestAsyncFlushWritesQueuedBeforeClose(t *testing.T) {
	p, n := Pair()
	a := NewAsync(p, 2)
	defer n.Close()
	for r := 1; r <= 2; r++ {
		if err := a.TrySend(Msg{Kind: KindParams, Round: r}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan int, 2)
	go func() {
		time.Sleep(20 * time.Millisecond) // the messages wait in the queue
		for range 2 {
			m, err := n.Recv()
			if err != nil {
				return
			}
			got <- m.Round
		}
	}()
	if err := a.Flush(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatalf("Flush = %v, want nil", err)
	}
	_ = a.Close()
	for want := 1; want <= 2; want++ {
		select {
		case r := <-got:
			if r != want {
				t.Errorf("peer read round %d, want %d", r, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("message %d never reached the peer", want)
		}
	}

	p2, n2 := Pair()
	b := NewAsync(p2, 1)
	defer b.Close()
	defer n2.Close()
	if err := b.TrySend(Msg{Kind: KindDone}, time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := b.Flush(start.Add(30 * time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Flush to a peer that never reads = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("Flush past its deadline took %v", elapsed)
	}
	_ = b.Close()
	if err := b.Flush(time.Now().Add(time.Second)); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}
}

func TestAsyncSurfacesPeerClose(t *testing.T) {
	p, n := Pair()
	a := NewAsync(p, 1)
	defer a.Close()

	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := a.TryRecv(time.Second)
	if !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	// The error stays observable on subsequent calls.
	_, err = a.TryRecv(50 * time.Millisecond)
	if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTimeout) {
		t.Errorf("second err = %v", err)
	}
}

func TestAsyncCloseIdempotentAndUnblocks(t *testing.T) {
	p, n := Pair()
	a := NewAsync(p, 1)
	defer n.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = a.TryRecv(10 * time.Second)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock TryRecv")
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
	if err := a.TrySend(Msg{}, 10*time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
}

func TestAsyncQueueDepthDefaultsToOne(t *testing.T) {
	p, n := Pair()
	a := NewAsync(p, 0)
	defer a.Close()
	defer n.Close()
	// Just exercise that a zero queue still works.
	go func() { _, _ = n.Recv() }()
	if err := a.TrySend(Msg{}, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncOverTCP(t *testing.T) {
	s, c := newTCPPair(t)
	a := NewAsync(s, 2)
	defer a.Close()

	go func() {
		m, err := c.Recv()
		if err != nil {
			return
		}
		_ = c.Send(m)
	}()
	if err := a.TrySend(Msg{Kind: KindUpdate, Params: []float64{1, 2}}, time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := a.TryRecv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Params) != 2 {
		t.Error("payload lost over async TCP")
	}
}

// TestAsyncOverTCPKeepsQueuedMessages: the TCP link reads every frame into
// the same buffers, so the pump must copy each message out before its next
// inner Recv. Three raw frames queued behind the pump each keep their own
// values.
func TestAsyncOverTCPKeepsQueuedMessages(t *testing.T) {
	const n = 3
	s, c := newTCPPair(t)
	bell := make(chan struct{}, 1)
	a := NewAsyncBell(s, n, bell)
	defer a.Close()
	for r := 0; r < n; r++ {
		if err := c.Send(Msg{Kind: KindUpdate, Round: r, Params: []float64{float64(r), float64(r)}}); err != nil {
			t.Fatal(err)
		}
	}
	for len(a.recvQ) < n {
		waitBell(t, bell)
	}
	for r := 0; r < n; r++ {
		m, err := a.TryRecv(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Round != r || len(m.Params) != 2 || m.Params[0] != float64(r) || m.Params[1] != float64(r) {
			t.Errorf("queued message %d: round %d, params %v; want [%d %d]", r, m.Round, m.Params, r, r)
		}
	}
}

// TestAsyncCopiesOnlyFromLendingLinks: the pump copies from every link
// that may reuse what it lends — TCP, anything wrapped by another package,
// a Chaos around either — and lets the in-memory pipe's messages, which
// nobody reuses, pass as they are.
func TestAsyncCopiesOnlyFromLendingLinks(t *testing.T) {
	p, _ := Pair()
	s, _ := newTCPPair(t)
	for name, tc := range map[string]struct {
		link  Link
		clone bool
	}{
		"pair":       {p, false},
		"chaos/pair": {NewChaos(p, ChaosConfig{}), false},
		"tcp":        {s, true},
		"chaos/tcp":  {NewChaos(s, ChaosConfig{}), true},
		"stub":       {newStubLink(nil), true},
	} {
		a := NewAsync(tc.link, 2)
		if a.clone != tc.clone {
			t.Errorf("%s: clone %v, want %v", name, a.clone, tc.clone)
		}
		_ = a.Close()
	}
}

// stubLink exercises Async's pumps on their own: Recv returns what recv
// says, and Send blocks until Close, so every message sent stays queued.
type stubLink struct {
	recv   func() (Msg, error)
	closed chan struct{}
	once   sync.Once
}

func newStubLink(recv func() (Msg, error)) *stubLink {
	l := &stubLink{recv: recv, closed: make(chan struct{})}
	if recv == nil {
		l.recv = func() (Msg, error) { <-l.closed; return Msg{}, ErrClosed }
	}
	return l
}

func (l *stubLink) Send(Msg) error {
	<-l.closed
	return ErrClosed
}

func (l *stubLink) Recv() (Msg, error) { return l.recv() }

func (l *stubLink) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// waitBell waits for a ring on bell, failing the test after a second.
func waitBell(t *testing.T, bell <-chan struct{}) {
	t.Helper()
	select {
	case <-bell:
	case <-time.After(time.Second):
		t.Fatal("the pump never rang the doorbell")
	}
}

// TestAsyncTryRecvZeroTimeout pins the non-blocking receive: a queued
// message first, then a pump error, then Close, otherwise ErrTimeout — and
// no allocation on the empty or the queued path.
func TestAsyncTryRecvZeroTimeout(t *testing.T) {
	t.Run("timeout", func(t *testing.T) {
		p, n := Pair()
		a := NewAsync(p, 1)
		defer a.Close()
		defer n.Close()
		if _, err := a.TryRecv(0); err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if _, err := a.TryRecv(-time.Second); err != ErrTimeout {
			t.Fatalf("negative timeout: err = %v, want ErrTimeout", err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = a.TryRecv(0) }); allocs != 0 {
			t.Errorf("empty-queue TryRecv(0) allocates %v times, want 0", allocs)
		}
	})
	t.Run("queued", func(t *testing.T) {
		const k = 101 // AllocsPerRun(100, f) calls f once more to warm up
		p, n := Pair()
		bell := make(chan struct{}, 1)
		a := NewAsyncBell(p, k, bell)
		defer a.Close()
		defer n.Close()
		for r := 0; r < k; r++ {
			if err := n.Send(Msg{Kind: KindUpdate, Round: r}); err != nil {
				t.Fatal(err)
			}
		}
		for len(a.recvQ) < k {
			waitBell(t, bell)
		}
		next := 0
		allocs := testing.AllocsPerRun(k-1, func() {
			if m, err := a.TryRecv(0); err != nil || m.Round != next {
				t.Errorf("TryRecv(0) = round %d, %v; want round %d", m.Round, err, next)
			}
			next++
		})
		if allocs != 0 {
			t.Errorf("queued TryRecv(0) allocates %v times, want 0", allocs)
		}
	})
	t.Run("pump-error", func(t *testing.T) {
		boom := errors.New("boom")
		bell := make(chan struct{}, 1)
		a := NewAsyncBell(newStubLink(func() (Msg, error) { return Msg{}, boom }), 1, bell)
		defer a.Close()
		waitBell(t, bell)
		for i := 0; i < 2; i++ { // the error stays observable
			if _, err := a.TryRecv(0); err != boom {
				t.Fatalf("call %d: err = %v, want the pump's error", i, err)
			}
		}
	})
	t.Run("closed", func(t *testing.T) {
		// The link delivers forever, so the receive pump parks on the full
		// queue and leaves through Close without reporting an error.
		bell := make(chan struct{}, 1)
		a := NewAsyncBell(newStubLink(func() (Msg, error) { return Msg{Kind: KindUpdate, Round: 7}, nil }), 1, bell)
		waitBell(t, bell)
		_ = a.Close()
		if m, err := a.TryRecv(0); err != nil || m.Round != 7 {
			t.Fatalf("after Close: round %d, %v; want the queued message first", m.Round, err)
		}
		if _, err := a.TryRecv(0); err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	})
}

// TestAsyncTrySendFastPathAllocs pins TrySend's fast path: with room in the
// send queue it enqueues without building a timer, so it does not allocate.
func TestAsyncTrySendFastPathAllocs(t *testing.T) {
	const k = 102 // the pump holds one message; AllocsPerRun sends 101
	a := NewAsync(newStubLink(nil), k)
	defer a.Close()
	m := Msg{Kind: KindParams, Round: 1}
	allocs := testing.AllocsPerRun(k-2, func() {
		if err := a.TrySend(m, time.Second); err != nil {
			t.Errorf("TrySend: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("TrySend with queue room allocates %v times, want 0", allocs)
	}
}

// TestAsyncTrySendZeroTimeout pins the non-blocking send: with the queue
// full, a TrySend with timeout 0 returns ErrTimeout at once, builds no timer
// and does not allocate.
func TestAsyncTrySendZeroTimeout(t *testing.T) {
	p, n := Pair()
	a := NewAsync(p, 1)
	defer a.Close()
	defer n.Close()
	// The peer never reads: the pump holds the first message in its Send,
	// and the second fills the queue.
	for r := 1; r <= 2; r++ {
		if err := a.TrySend(Msg{Kind: KindParams, Round: r}, time.Second); err != nil {
			t.Fatalf("send %d: %v", r, err)
		}
	}
	m := Msg{Kind: KindParams, Round: 3}
	if err := a.TrySend(m, 0); err != ErrTimeout {
		t.Fatalf("TrySend(0) on a full queue = %v, want ErrTimeout", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = a.TrySend(m, 0) }); allocs != 0 {
		t.Errorf("TrySend(0) on a full queue allocates %v times, want 0", allocs)
	}
}
