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
	// sendFail and recvFail close when the send or the receive pump stops
	// on a link error, which the pump stores in sendErr or recvErr first.
	// The two are kept apart because only the receive pump's failure is
	// ordered after the messages it queued: a send can fail while the
	// receive pump still holds the peer's last reply.
	sendFail, recvFail chan struct{}
	sendErr, recvErr   error
	// flush carries Flush's requests to the send pump, which closes the
	// request's channel once it has written everything queued before it.
	flush chan chan struct{}
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
		link:     link,
		sendQ:    make(chan Msg, queue),
		recvQ:    make(chan Msg, queue),
		sendFail: make(chan struct{}),
		recvFail: make(chan struct{}),
		flush:    make(chan chan struct{}),
		done:     make(chan struct{}),
		bell:     bell,
		clone:    !keepsReceived(link),
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
			if !a.write(m) {
				return
			}
		case ack := <-a.flush:
			// Every message queued before the request is in sendQ: TrySend
			// had returned before Flush was called. Only this pump takes
			// from sendQ, so a non-zero length never blocks the take.
			for len(a.sendQ) > 0 {
				if !a.write(<-a.sendQ) {
					return
				}
			}
			close(ack)
		}
	}
}

// write sends m on the link and reports whether the pump may go on; on a
// link error it records the error and closes sendFail first.
func (a *Async) write(m Msg) bool {
	if err := a.link.Send(m); err != nil {
		a.sendErr = err
		close(a.sendFail)
		a.ring()
		return false
	}
	return true
}

func (a *Async) recvLoop() {
	defer a.wg.Done()
	for {
		m, err := a.link.Recv()
		if err != nil {
			a.recvErr = err
			close(a.recvFail)
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
func (a *Async) ring() {
	select {
	case a.bell <- struct{}{}:
	default:
	}
}

// TrySend enqueues m, waiting at most timeout for queue space. It returns
// ErrTimeout on deadline, or the link's failure: the send pump's error, or
// the receive pump's when only that pump has failed (a peer that is gone
// takes no more messages either). Close and a pump error take priority
// over free queue space (a queued message would never be sent once the
// pumps have stopped). With room in the queue it enqueues without building
// a timer; a timeout <= 0 never waits for room, and returns ErrTimeout when
// the queue is full.
func (a *Async) TrySend(m Msg, timeout time.Duration) error {
	select {
	case <-a.done:
		return ErrClosed
	default:
	}
	select {
	case <-a.sendFail:
		return a.sendErr
	case <-a.recvFail:
		return a.recvErr
	default:
	}
	select {
	case a.sendQ <- m:
		return nil
	default:
	}
	if timeout <= 0 {
		return ErrTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case a.sendQ <- m:
		return nil
	case <-a.sendFail:
		return a.sendErr
	case <-a.recvFail:
		return a.recvErr
	case <-a.done:
		return ErrClosed
	case <-timer.C:
		return ErrTimeout
	}
}

// TryRecv waits at most timeout for an inbound message. Messages already
// queued are delivered even if the link has since closed. It reports only
// the receive pump's error, and only once every message that pump queued
// has been delivered; a failed send alone is not a receive failure (the
// peer's reply may still be on its way in), so TryRecv keeps waiting for a
// message, the receive pump's error, Close or the timeout. A timeout <= 0
// only checks, in order, for a queued message, a receive-pump error and
// Close, and returns ErrTimeout otherwise; it builds no timer and does not
// allocate.
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
		case <-a.recvFail:
			return a.recvAfterFail()
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
	case <-a.recvFail:
		return a.recvAfterFail()
	case <-a.done:
		return Msg{}, ErrClosed
	case <-timer.C:
		return Msg{}, ErrTimeout
	}
}

// recvAfterFail is TryRecv's answer once the receive pump has failed: a
// message queued before the failure is delivered first. The pump queues a
// peer's last message before it records the failure, and both can become
// ready between TryRecv's non-blocking look at recvQ and its select, which
// picks among ready cases at random; one more look at recvQ here, after the
// failure, sees everything the pump queued.
func (a *Async) recvAfterFail() (Msg, error) {
	select {
	case m := <-a.recvQ:
		return m, nil
	default:
		return Msg{}, a.recvErr
	}
}

// Flush waits until the send pump has written every message queued before
// the call, and returns nil then. It returns the send pump's error if the
// link fails first, ErrClosed after Close, and ErrTimeout once deadline
// passes. Close alone drops whatever is still queued; Flush before Close
// lets a last message, such as a farewell KindDone, reach the peer. Callers
// flushing several links pass them one deadline: the pumps write in
// parallel, so the waits overlap and the set costs at most one bound.
func (a *Async) Flush(deadline time.Time) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	ack := make(chan struct{})
	select {
	case a.flush <- ack:
	case <-a.sendFail:
		return a.sendErr
	case <-a.done:
		return ErrClosed
	case <-timer.C:
		return ErrTimeout
	}
	select {
	case <-ack:
		return nil
	case <-a.sendFail:
		return a.sendErr
	case <-a.done:
		return ErrClosed
	case <-timer.C:
		return ErrTimeout
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
