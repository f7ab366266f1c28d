package transport

import (
	"errors"
	"slices"
	"sync"
	"time"
)

// ErrTimeout reports that an Async operation exceeded its deadline.
var ErrTimeout = errors.New("transport: operation timed out")

// Async wraps a Link with goroutine-pumped, buffered I/O so a caller can
// impose per-operation deadlines without ever blocking on a dead or slow
// peer. The platform uses it for fault-tolerant rounds: a straggler that
// misses the round deadline is dropped instead of stalling the federation.
type Async struct {
	link  Link
	sendQ chan Msg
	recvQ chan Msg
	errc  chan error
	done  chan struct{}
	bell  chan<- struct{}
	once  sync.Once
	wg    sync.WaitGroup
	// clone makes the receive pump copy each message's sections into fresh
	// slices before its next inner Recv can reuse the link's buffers, so
	// every message TryRecv returns is the caller's. False over a link that
	// never reuses what it lends (keepsReceived), whose messages pass through
	// as they are.
	clone bool
}

// NewAsync starts the I/O pumps for link with the given queue depth per
// direction. Close stops the pumps and closes the underlying link.
func NewAsync(link Link, queue int) *Async {
	return NewAsyncBell(link, queue, nil)
}

// NewAsyncBell is NewAsync with a doorbell: after the pumps queue an inbound
// message or report an error, they send to bell without blocking. A bell of
// capacity 1 shared by several links coalesces their rings, so a consumer
// that drains every link with TryRecv(0) and then waits on bell never misses
// an arrival: a ring always follows the enqueue it announces. A nil bell is
// never rung.
func NewAsyncBell(link Link, queue int, bell chan<- struct{}) *Async {
	if queue < 1 {
		queue = 1
	}
	a := &Async{
		link:  link,
		sendQ: make(chan Msg, queue),
		recvQ: make(chan Msg, queue),
		errc:  make(chan error, 2), // one slot per pump
		done:  make(chan struct{}),
		bell:  bell,
		clone: !keepsReceived(link),
	}
	a.wg.Add(2)
	go a.sendLoop()
	go a.recvLoop()
	return a
}

func (a *Async) sendLoop() {
	defer a.wg.Done()
	for {
		select {
		case <-a.done:
			return
		case m := <-a.sendQ:
			if err := a.link.Send(m); err != nil {
				a.reportErr(err)
				a.ring()
				return
			}
		}
	}
}

func (a *Async) recvLoop() {
	defer a.wg.Done()
	for {
		m, err := a.link.Recv()
		if err != nil {
			a.reportErr(err)
			a.ring()
			return
		}
		if a.clone {
			m.Params = slices.Clone(m.Params)
			m.Payload = slices.Clone(m.Payload)
		}
		select {
		case <-a.done:
			return
		case a.recvQ <- m:
			a.ring()
		}
	}
}

// ring announces a queued message or a pump error on the doorbell, if any.
// Only the pumps ring: a caller that re-reports an error it took from errc
// announces nothing new.
func (a *Async) ring() {
	select {
	case a.bell <- struct{}{}:
	default:
	}
}

func (a *Async) reportErr(err error) {
	select {
	case a.errc <- err:
	default:
	}
}

// TrySend enqueues m, waiting at most timeout for queue space. It returns
// ErrTimeout on deadline, or the pump's error if the link has failed.
// Close and a pending pump error take priority over free queue space (a
// queued message would never be sent once the pumps have stopped). With
// room in the queue it enqueues without building a timer.
func (a *Async) TrySend(m Msg, timeout time.Duration) error {
	select {
	case <-a.done:
		return ErrClosed
	default:
	}
	select {
	case err := <-a.errc:
		a.reportErr(err)
		return err
	default:
	}
	select {
	case a.sendQ <- m:
		return nil
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case a.sendQ <- m:
		return nil
	case err := <-a.errc:
		a.reportErr(err) // keep it observable for later calls
		return err
	case <-a.done:
		return ErrClosed
	case <-timer.C:
		return ErrTimeout
	}
}

// TryRecv waits at most timeout for an inbound message. Messages already
// queued are delivered even if the link has since closed. A timeout <= 0
// only checks, in order, for a queued message, a pump error and Close, and
// returns ErrTimeout otherwise; it builds no timer and does not allocate.
// Unlike Link.Recv, it does not lend: the message's Params and Payload are
// the caller's to keep (the pump copied them out of a link that reuses its
// buffers).
func (a *Async) TryRecv(timeout time.Duration) (Msg, error) {
	select {
	case m := <-a.recvQ:
		return m, nil
	default:
	}
	if timeout <= 0 {
		select {
		case err := <-a.errc:
			return a.recvAfterErr(err)
		default:
		}
		select {
		case <-a.done:
			return Msg{}, ErrClosed
		default:
			return Msg{}, ErrTimeout
		}
	}
	select {
	case <-a.done:
		return Msg{}, ErrClosed
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m := <-a.recvQ:
		return m, nil
	case err := <-a.errc:
		return a.recvAfterErr(err)
	case <-a.done:
		return Msg{}, ErrClosed
	case <-timer.C:
		return Msg{}, ErrTimeout
	}
}

// recvAfterErr is TryRecv's answer once it has taken err from errc: the
// error stays reported for later calls, but a message queued before it is
// delivered first. The receive pump queues a peer's last message before it
// reports the link's failure, and both can become ready between TryRecv's
// non-blocking look at recvQ and its select, which picks among ready cases
// at random; one more look at recvQ here, after the error, sees anything
// the pump queued before reporting it. Only the receive pump's errors are
// ordered after its queued messages: errc also carries the send pump's
// error, and nothing orders that against a reply the receive pump is still
// reading or copying, so a failed send can still pre-empt a reply in
// flight.
func (a *Async) recvAfterErr(err error) (Msg, error) {
	a.reportErr(err)
	select {
	case m := <-a.recvQ:
		return m, nil
	default:
		return Msg{}, err
	}
}

// Close stops the pumps and closes the underlying link. It is idempotent
// and waits for the pump goroutines to exit.
func (a *Async) Close() error {
	var err error
	a.once.Do(func() {
		close(a.done)
		err = a.link.Close()
		a.wg.Wait()
	})
	return err
}
