package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"unsafe"

	"github.com/edgeai/fedml/internal/obs"
)

// The TCP wire format: every Msg is one length-prefixed little-endian frame
// (DESIGN.md §7, "Wire format", has the byte-offset table and the reasons).
//
//	[u32 frame length]               bytes that follow the prefix
//	[32-byte header]                 see appendHeader
//	[nParams × u64]                  Params as raw IEEE-754 bits
//	[nPayload bytes]                 Payload
//	[codec name][err]                lengths in the header
//	[112-byte Partial block]         only when flagPartial is set
//
// The section lengths in the header must add up exactly to the frame length,
// so a receiver knows every size before it allocates anything.
const (
	// MaxFrameBytes is the hard limit on the frame length a link sends or
	// accepts: 32 Mi raw parameters, three orders of magnitude above the
	// largest model in the repository.
	MaxFrameBytes = 1 << 28

	// frameVersion is the format version this binary speaks; there is no
	// negotiation, a peer with another version is refused. The binaries
	// before this format streamed encoding/gob, whose type descriptor for
	// Msg puts 0x01 at the version offset — so gob is, in effect, format 1,
	// and such a peer gets the version error instead of a misparse. Format 2
	// had one more u64 in the Partial block.
	frameVersion = 3

	prefixSize  = 4
	headerSize  = 32
	partialSize = 4*8 + obs.BlockSize // 4 fields × 8 bytes, then Stats; see appendPartial

	// flagPartial marks a frame that ends with a Partial block. Every other
	// flag bit is reserved and must be zero.
	flagPartial = 1 << 0

	// bufSize is the one buffer each direction of a link streams through.
	// It is fixed: a softmax frame (62.8 KB) is a single Write and usually a
	// single Read, and a link that once carried a large frame keeps no
	// memory of it.
	bufSize = 64 << 10

	// eagerBytes bounds what Recv allocates for a section before its bytes
	// have arrived; a longer section grows by doubling as they do, so a
	// hostile length prefix costs at most this much.
	eagerBytes = 256 << 10
)

// littleEndian reports whether a []float64 already holds the wire's bytes:
// then the Params section is written from and read into the slice's own
// memory in one piece, and only a big-endian host converts float by float
// (writeFloats, readFloats).
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ErrFrame reports a frame that violates the wire format: a length over
// MaxFrameBytes or under the header size, section lengths that do not add up
// to the frame length, an unknown format version, a reserved bit set — or, on
// Send, a Msg the format cannot carry. The link is unusable afterwards.
var ErrFrame = errors.New("transport: malformed frame")

// tcpLink frames Msg values over a net.Conn.
type tcpLink struct {
	conn net.Conn
	// Each direction's buffer comes with its first message, so accepting a
	// fleet of connections costs no memory up front.
	w *bufio.Writer
	r *bufio.Reader

	sendMu sync.Mutex
	recvMu sync.Mutex
	// recvErr is the first error Recv returned. A failed Recv leaves the
	// stream at an unknown offset, so every later one repeats the error.
	recvErr error
	in      recvState
	once    sync.Once
}

// recvState is what a link's receive side keeps from one frame to the next.
type recvState struct {
	// codec is the last non-empty codec name Recv returned. A link carries
	// one codec for long stretches, so a frame whose name matches reuses
	// this string instead of allocating its own.
	codec string
	// params and payload are the buffers every frame's Params and Payload
	// sections are read into, lent to the caller until the next Recv. They
	// only grow, by the rule of section, so a steady stream of frames of one
	// shape allocates nothing.
	params  []float64
	payload []byte
}

var _ Link = (*tcpLink)(nil)

// NewConnLink wraps an established connection as a Link. The caller hands
// over ownership of conn; Close closes it.
func NewConnLink(conn net.Conn) Link {
	return &tcpLink{conn: conn}
}

// Dial connects to a platform listening at addr and returns the node-side
// endpoint.
func Dial(addr string) (Link, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConnLink(conn), nil
}

// Accept accepts n node connections from ln and returns their platform-side
// endpoints in accept order.
func Accept(ln net.Listener, n int) ([]Link, error) {
	links := make([]Link, 0, n)
	for i := 0; i < n; i++ {
		conn, err := ln.Accept()
		if err != nil {
			for _, l := range links {
				_ = l.Close()
			}
			return nil, fmt.Errorf("transport: accept node %d: %w", i, err)
		}
		links = append(links, NewConnLink(conn))
	}
	return links, nil
}

// header is the fixed part of a frame, with the section lengths still in
// their wire types.
type header struct {
	kind, flags, nCodec                                  uint8
	round, node, version, steps, nParams, nPayload, nErr uint32
}

// frameLen is the frame length the header's sections add up to. It cannot
// overflow: every term is below 2³⁵.
func (h header) frameLen() uint64 {
	n := headerSize + 8*uint64(h.nParams) + uint64(h.nPayload) + uint64(h.nCodec) + uint64(h.nErr)
	if h.flags&flagPartial != 0 {
		n += partialSize
	}
	return n
}

// headerOf validates that m fits the format and returns its header.
func headerOf(m Msg) (header, error) {
	for _, f := range [...]struct {
		name string
		v    int
	}{{"Round", m.Round}, {"NodeID", m.NodeID}, {"Version", m.Version}, {"LocalSteps", m.LocalSteps}} {
		if f.v < math.MinInt32 || f.v > math.MaxInt32 {
			return header{}, fmt.Errorf("%w: %s %d does not fit 32 bits", ErrFrame, f.name, f.v)
		}
	}
	if m.Kind < 0 || m.Kind > math.MaxUint8 {
		return header{}, fmt.Errorf("%w: kind %d does not fit 8 bits", ErrFrame, int(m.Kind))
	}
	if len(m.Codec) > math.MaxUint8 {
		return header{}, fmt.Errorf("%w: codec name of %d bytes, limit %d", ErrFrame, len(m.Codec), math.MaxUint8)
	}
	// Checked one by one so the u32 conversions below cannot truncate.
	for _, n := range [...]int{len(m.Params), len(m.Payload), len(m.Err)} {
		if n > MaxFrameBytes {
			return header{}, fmt.Errorf("%w: section of %d bytes or more exceeds MaxFrameBytes", ErrFrame, n)
		}
	}
	h := header{
		kind: uint8(m.Kind), nCodec: uint8(len(m.Codec)),
		round: uint32(int32(m.Round)), node: uint32(int32(m.NodeID)),
		version: uint32(int32(m.Version)), steps: uint32(int32(m.LocalSteps)),
		nParams: uint32(len(m.Params)), nPayload: uint32(len(m.Payload)), nErr: uint32(len(m.Err)),
	}
	if m.Partial != nil {
		h.flags = flagPartial
	}
	if n := h.frameLen(); n > MaxFrameBytes {
		return header{}, fmt.Errorf("%w: frame of %d bytes exceeds MaxFrameBytes", ErrFrame, n)
	}
	return h, nil
}

// appendHeader appends the length prefix and the 32-byte header:
//
//	0 version  1 kind  2 flags  3 codec-name length
//	4 round  8 node  12 version  16 local steps      (i32)
//	20 nParams  24 nPayload  28 err length           (u32)
func appendHeader(b []byte, h header) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(h.frameLen()))
	b = append(b, frameVersion, h.kind, h.flags, h.nCodec)
	for _, v := range [...]uint32{h.round, h.node, h.version, h.steps, h.nParams, h.nPayload, h.nErr} {
		b = le.AppendUint32(b, v)
	}
	return b
}

// parseHeader reads the header fields from the headerSize bytes after the
// prefix; the version byte is checked by the caller.
func parseHeader(b []byte) header {
	le := binary.LittleEndian
	return header{
		kind: b[1], flags: b[2], nCodec: b[3],
		round: le.Uint32(b[4:]), node: le.Uint32(b[8:]), version: le.Uint32(b[12:]), steps: le.Uint32(b[16:]),
		nParams: le.Uint32(b[20:]), nPayload: le.Uint32(b[24:]), nErr: le.Uint32(b[28:]),
	}
}

// appendPartial appends the fixed-size Partial block: the fields of Partial
// before Stats in declaration order, 8 bytes each, floats as their IEEE-754
// bits and counts as two's-complement i64, then the Stats block
// (obs.Totals.AppendBlock).
func appendPartial(b []byte, p *Partial) []byte {
	for _, v := range [...]uint64{
		math.Float64bits(p.Weight), uint64(p.Count), math.Float64bits(p.Dispersion), uint64(p.Alive),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return p.Stats.AppendBlock(b)
}

func parsePartial(b []byte) *Partial {
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	f := func(i int) float64 { return math.Float64frombits(u(i)) }
	p := &Partial{Weight: f(0), Count: int(u(1)), Dispersion: f(2), Alive: int(u(3))}
	p.Stats.ReadBlock(b[partialSize-obs.BlockSize:])
	return p
}

// Send implements Link. A Msg the format cannot carry is refused before a
// byte is written; an I/O error mid-frame leaves the link unusable.
func (l *tcpLink) Send(m Msg) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	h, err := headerOf(m)
	if err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	if l.w == nil {
		l.w = bufio.NewWriterSize(l.conn, bufSize)
	}
	if err := writeFrame(l.w, h, m); err != nil {
		return fmt.Errorf("transport: send: %w", mapClosed(err))
	}
	return nil
}

// writeFrame streams one frame through w and flushes it. w's first error
// sticks, so the bulk writes go unchecked and the flushes report.
func writeFrame(w *bufio.Writer, h header, m Msg) error {
	b, err := room(w, prefixSize+headerSize)
	if err != nil {
		return err
	}
	_, _ = w.Write(appendHeader(b, h))
	// A section that does not fit the buffer goes out straight from the
	// caller's slice.
	if littleEndian {
		_, _ = w.Write(floatBytes(m.Params))
	} else if err := writeFloats(w, m.Params); err != nil {
		return err
	}
	_, _ = w.Write(m.Payload)
	_, _ = w.WriteString(m.Codec)
	_, _ = w.WriteString(m.Err)
	if m.Partial != nil {
		if b, err = room(w, partialSize); err != nil {
			return err
		}
		_, _ = w.Write(appendPartial(b, m.Partial))
	}
	return w.Flush()
}

// writeFloats writes p as little-endian IEEE-754 bit patterns one float at
// a time, converting into the buffer: the Params path of a big-endian host,
// byte for byte what the bulk write of floatBytes puts on the wire of a
// little-endian one.
func writeFloats(w *bufio.Writer, p []float64) error {
	for len(p) > 0 {
		b, err := room(w, 8)
		if err != nil {
			return err
		}
		k := min(len(p), cap(b)/8)
		for _, v := range p[:k] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		_, _ = w.Write(b)
		p = p[k:]
	}
	return nil
}

// floatBytes is p's own memory as bytes. On a little-endian host these are
// the section's wire bytes.
func floatBytes(p []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), 8*len(p))
}

// room returns the empty tail of w's buffer with at least n bytes of
// capacity, flushing first if need be; what is appended to it is then handed
// to w.Write, which finds it already in place.
func room(w *bufio.Writer, n int) ([]byte, error) {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

// Recv implements Link. Params and Payload of the returned Msg are lent:
// they are the link's receive buffers, valid until the next Recv, which
// reads the next frame into them. Zero-length sections come back nil.
func (l *tcpLink) Recv() (Msg, error) {
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	if l.recvErr != nil {
		return Msg{}, l.recvErr
	}
	if l.r == nil {
		l.r = bufio.NewReaderSize(l.conn, bufSize)
	}
	m, err := readFrame(l.r, &l.in)
	if err != nil {
		l.recvErr = fmt.Errorf("transport: recv: %w", mapClosed(err))
		return Msg{}, l.recvErr
	}
	return m, nil
}

// readFrame reads one frame from r into the buffers of s. A frame whose
// codec name equals s.codec gets that string; one with another non-empty
// name replaces it.
func readFrame(r *bufio.Reader, s *recvState) (Msg, error) {
	// The version is judged first, on the first bytes to arrive: a peer
	// speaking another format is told so, whatever its bytes look like as
	// a length.
	b, err := r.Peek(prefixSize + 1)
	if err != nil {
		return Msg{}, err
	}
	if v := b[prefixSize]; v != frameVersion {
		return Msg{}, fmt.Errorf("%w: format version %d, this binary speaks %d", ErrFrame, v, frameVersion)
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxFrameBytes || n < headerSize {
		return Msg{}, fmt.Errorf("%w: frame length %d outside [%d, %d]", ErrFrame, n, headerSize, MaxFrameBytes)
	}
	if b, err = r.Peek(prefixSize + headerSize); err != nil {
		return Msg{}, err
	}
	h := parseHeader(b[prefixSize:])
	if h.flags&^flagPartial != 0 {
		return Msg{}, fmt.Errorf("%w: reserved flag bits %#x set", ErrFrame, h.flags&^flagPartial)
	}
	if want := h.frameLen(); want != uint64(n) {
		return Msg{}, fmt.Errorf("%w: sections add up to %d bytes, frame length says %d", ErrFrame, want, n)
	}
	_, _ = r.Discard(prefixSize + headerSize)

	m := Msg{
		Kind: Kind(h.kind), Round: int(int32(h.round)), NodeID: int(int32(h.node)),
		Version: int(int32(h.version)), LocalSteps: int(int32(h.steps)),
	}
	if h.nParams > 0 {
		if s.params, err = readParams(r, s.params, int(h.nParams)); err != nil {
			return Msg{}, err
		}
		m.Params = s.params
	}
	if h.nPayload > 0 {
		if s.payload, err = readBytes(r, s.payload, int(h.nPayload)); err != nil {
			return Msg{}, err
		}
		m.Payload = s.payload
	}
	nTail := int(n) - headerSize - 8*len(m.Params) - len(m.Payload)
	if nTail == 0 {
		return m, nil
	}
	// The tail is a few bytes, parsed in place in the buffer; only an Err
	// longer than the buffer takes the allocating path.
	peeked := nTail <= bufSize
	if peeked {
		b, err = r.Peek(nTail)
	} else {
		b, err = readBytes(r, nil, nTail)
	}
	if err != nil {
		return Msg{}, err
	}
	if name := b[:h.nCodec]; len(name) > 0 {
		if string(name) != s.codec { // the comparison does not allocate
			s.codec = string(name)
		}
		m.Codec = s.codec
	}
	m.Err = string(b[h.nCodec:][:h.nErr])
	if h.flags&flagPartial != 0 {
		m.Partial = parsePartial(b[nTail-partialSize:])
	}
	if peeked {
		_, _ = r.Discard(nTail)
	}
	return m, nil
}

// section returns buf resliced to the first end elements of an n-element
// section of which got have arrived, growing it by the eager rule: eager
// elements up front, doubling after, so memory follows the bytes a peer
// actually sends, not the length it claims. Capacity buf already has is used
// as it is.
func section[T float64 | byte](buf []T, got, n, eager int) []T {
	end := min(n, max(cap(buf), 2*got, eager))
	if end > cap(buf) {
		grown := make([]T, end)
		copy(grown, buf[:got])
		return grown
	}
	return buf[:end]
}

// readParams reads n float64 values, sent as little-endian IEEE-754 bit
// patterns, into buf (grown as section allows) and returns it at length n.
// A little-endian host reads the bytes straight into the floats' memory.
func readParams(r *bufio.Reader, buf []float64, n int) ([]float64, error) {
	for got := 0; got < n; got = len(buf) {
		buf = section(buf, got, n, eagerBytes/8)
		var err error
		if littleEndian {
			_, err = io.ReadFull(r, floatBytes(buf[got:]))
		} else {
			err = readFloats(r, buf[got:])
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readFloats fills p with little-endian IEEE-754 bit patterns read from r,
// converting one float at a time straight out of the read buffer: the
// Params path of a big-endian host, bit for bit what readParams's bulk read
// gives on a little-endian one.
func readFloats(r *bufio.Reader, p []float64) error {
	for len(p) > 0 {
		if _, err := r.Peek(8); err != nil {
			return err
		}
		k := min(r.Buffered()/8, len(p))
		b, _ := r.Peek(8 * k)
		for i := range p[:k] {
			p[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		_, _ = r.Discard(8 * k)
		p = p[k:]
	}
	return nil
}

// readBytes reads an n-byte section into buf (grown as section allows) and
// returns it at length n; once r's buffer is drained, bufio reads the rest
// straight into it.
func readBytes(r *bufio.Reader, buf []byte, n int) ([]byte, error) {
	for got := 0; got < n; got = len(buf) {
		buf = section(buf, got, n, eagerBytes)
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Close implements Link; idempotent.
func (l *tcpLink) Close() error {
	var err error
	l.once.Do(func() { err = l.conn.Close() })
	return err
}

// mapClosed folds every way a connection ends into ErrClosed. A peer that
// dies mid-frame (io.ErrUnexpectedEOF) is as gone as one that closes between
// frames, and callers stop retrying on ErrClosed only.
func mapClosed(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}
