package transport

import "sync"

// memLink is one endpoint of an in-memory pipe. Messages pass through
// unbuffered channels, so a Send rendezvouses with the peer's Recv — the
// same back-pressure a synchronous network call would apply.
type memLink struct {
	send chan<- Msg
	recv <-chan Msg

	closed chan struct{}
	once   sync.Once
	peer   *memLink
}

var _ Link = (*memLink)(nil)

// Pair returns the two endpoints of a connected in-memory pipe. Closing
// either endpoint unblocks both sides.
func Pair() (Link, Link) {
	ab := make(chan Msg)
	ba := make(chan Msg)
	a := &memLink{send: ab, recv: ba, closed: make(chan struct{})}
	b := &memLink{send: ba, recv: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

// Send implements Link.
func (l *memLink) Send(m Msg) error {
	select {
	case <-l.closed:
		return ErrClosed
	case <-l.peer.closed:
		return ErrClosed
	case l.send <- m:
		return nil
	}
}

// Recv implements Link.
func (l *memLink) Recv() (Msg, error) {
	select {
	case <-l.closed:
		return Msg{}, ErrClosed
	case <-l.peer.closed:
		return Msg{}, ErrClosed
	case m := <-l.recv:
		return m, nil
	}
}

func (*memLink) keepsReceived() bool { return true }

// Close implements Link. It is idempotent.
func (l *memLink) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}
