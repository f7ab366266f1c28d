package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// scriptConn is a net.Conn whose peer is a fixed byte script: Read serves the
// script and then EOF (a peer that said this much and died), Write records.
type scriptConn struct {
	net.Conn // nil: the link may call nothing but the methods below
	in       bytes.Reader
	out      bytes.Buffer
}

func script(in []byte) *scriptConn {
	c := &scriptConn{}
	c.in.Reset(in)
	return c
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { return nil }

// encodeFrame returns the bytes Send puts on the wire for m.
func encodeFrame(t testing.TB, m Msg) []byte {
	t.Helper()
	c := script(nil)
	if err := NewConnLink(c).Send(m); err != nil {
		t.Fatalf("send %+v: %v", m, err)
	}
	return c.out.Bytes()
}

// recvBytes is what a fresh link's first Recv makes of wire.
func recvBytes(wire []byte) (Msg, error) {
	return NewConnLink(script(wire)).Recv()
}

// fullPartial returns a Partial with every leaf field, however nested, set to
// a distinct non-zero value, and the number of leaves. It walks the type by
// reflection so that a field added to Partial or obs.Totals later is set here
// — and then fails the round trip until the frame carries it.
func fullPartial(t testing.TB) (*Partial, int) {
	t.Helper()
	p := &Partial{}
	leaves := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Float64:
			leaves++
			v.SetFloat(-float64(leaves) - 0.25)
		case reflect.Int, reflect.Int64:
			leaves++
			v.SetInt(-int64(leaves) << 33) // needs all 64 bits
		default:
			t.Fatalf("Partial has a %s field: teach the frame and this test to carry it", v.Kind())
		}
	}
	fill(reflect.ValueOf(p).Elem())
	return p, leaves
}

// sameMsg compares two messages field by field, floats by bit pattern.
func sameMsg(t *testing.T, got, want Msg) {
	t.Helper()
	if len(got.Params) != len(want.Params) {
		t.Fatalf("got %d params, want %d", len(got.Params), len(want.Params))
	}
	for i := range want.Params {
		if g, w := math.Float64bits(got.Params[i]), math.Float64bits(want.Params[i]); g != w {
			t.Fatalf("param %d: bits %#x, want %#x", i, g, w)
		}
	}
	g, w := got, want
	g.Params, w.Params = nil, nil
	if len(w.Payload) == 0 {
		w.Payload = nil // zero-length sections come back nil
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("got %+v (partial %+v)\nwant %+v (partial %+v)", g, g.Partial, w, w.Partial)
	}
}

// seedMsgs are valid messages of every Kind and every section combination.
func seedMsgs(t testing.TB) []Msg {
	partial, _ := fullPartial(t)
	return []Msg{
		{},
		{Kind: KindParams, Round: 3, Version: 2, LocalSteps: 5, Params: []float64{1, 2.5, -3}},
		{Kind: KindParams, Round: 4, Codec: "topk:0.05", Payload: []byte{3, 0, 1, 2, 3, 4, 5, 6, 7}},
		{Kind: KindUpdate, Round: 4, NodeID: 7, Version: 2, Codec: "q8", Payload: bytes.Repeat([]byte{0xAB}, 300)},
		{Kind: KindUpdate, Round: 1, NodeID: 1, Params: []float64{math.NaN(), math.Inf(-1)}},
		{Kind: KindDone},
		{Kind: KindError, Round: 9, NodeID: 2, Err: "node 2: gradient is not finite"},
		{Kind: KindPartial, Round: 6, NodeID: 1, Params: []float64{0.5, -0.5}, Partial: partial},
		{Kind: KindPartial, Round: 7, Partial: &Partial{}},
		{Kind: Kind(200), Round: -1, NodeID: -1, Version: -1, LocalSteps: -1, Params: []float64{7}, Payload: []byte{8}, Codec: "x", Err: "y", Partial: partial},
	}
}

func TestFrameRoundTripAllFields(t *testing.T) {
	partial, leaves := fullPartial(t)
	if leaves*8 != partialSize {
		t.Fatalf("Partial has %d leaf fields, the frame's Partial block carries %d", leaves, partialSize/8)
	}

	msgs := seedMsgs(t)
	for _, v := range []int{0, 1, -1, math.MaxInt32, math.MinInt32} {
		msgs = append(msgs,
			Msg{Kind: KindParams, Round: v}, Msg{Kind: KindParams, NodeID: v},
			Msg{Kind: KindParams, Version: v}, Msg{Kind: KindParams, LocalSteps: v})
	}
	negZero := math.Copysign(0, -1)
	msgs = append(msgs, Msg{Kind: KindUpdate, Params: []float64{
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.Inf(1), math.Inf(-1), negZero, 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, 1e-310,
	}})
	// Sections around the link's 64 KiB buffer and the 256 KiB eager limit:
	// the MLP's raw vector (208 KB), and ones that take the doubling path.
	for _, n := range []int{bufSize/8 - 5, bufSize / 8, 25970, eagerBytes / 8, eagerBytes/8 + 1, 100_000} {
		p := make([]float64, n)
		for i := range p {
			p[i] = math.Float64frombits(0x3ff0000000000000 ^ uint64(i)*0x9e3779b97f4a7c15)
		}
		msgs = append(msgs, Msg{Kind: KindParams, Round: n, Params: p})
	}
	for _, n := range []int{bufSize - prefixSize - headerSize, bufSize, eagerBytes + 1, 3*eagerBytes + 7} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i * 131)
		}
		msgs = append(msgs, Msg{Kind: KindUpdate, Round: n, Codec: "raw", Payload: p, Partial: partial})
	}
	// An Err too long to be parsed in place in the buffer.
	msgs = append(msgs, Msg{Kind: KindError, Codec: "c", Err: strings.Repeat("e", bufSize+1), Partial: partial})

	// One real TCP connection carries them all back to back.
	s, c := newTCPPair(t)
	errc := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := s.Send(m); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i, want := range msgs {
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("msg %d: recv: %v", i, err)
		}
		sameMsg(t, got, want)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	t.Run("empty sections come back nil", func(t *testing.T) {
		nilWire := encodeFrame(t, Msg{Kind: KindUpdate})
		emptyWire := encodeFrame(t, Msg{Kind: KindUpdate, Params: []float64{}, Payload: []byte{}})
		if !bytes.Equal(nilWire, emptyWire) {
			t.Fatalf("nil and empty sections encode differently:\n% x\n% x", nilWire, emptyWire)
		}
		got, err := recvBytes(emptyWire)
		if err != nil {
			t.Fatal(err)
		}
		if got.Params != nil || got.Payload != nil || got.Partial != nil {
			t.Fatalf("empty sections decoded as %#v", got)
		}
	})

	t.Run("several frames in one read", func(t *testing.T) {
		var wire []byte
		small := seedMsgs(t)
		for _, m := range small {
			wire = append(wire, encodeFrame(t, m)...)
		}
		l := NewConnLink(script(wire))
		for i, want := range small {
			got, err := l.Recv()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			sameMsg(t, got, want)
		}
		if _, err := l.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("after the last frame: %v, want ErrClosed", err)
		}
	})

	t.Run("send refuses what the frame cannot carry", func(t *testing.T) {
		big := math.MaxInt32 + 1
		for name, m := range map[string]Msg{
			"round":        {Round: big},
			"node":         {NodeID: -big - 1},
			"version":      {Version: big},
			"steps":        {LocalSteps: big},
			"kind":         {Kind: 256},
			"negativeKind": {Kind: -1},
			"codec":        {Codec: strings.Repeat("c", 256)},
			"frame":        {Payload: make([]byte, MaxFrameBytes-headerSize+1)},
		} {
			c := script(nil)
			l := NewConnLink(c)
			if err := l.Send(m); !errors.Is(err, ErrFrame) {
				t.Errorf("%s: Send = %v, want ErrFrame", name, err)
			}
			if c.out.Len() != 0 {
				t.Errorf("%s: refused Send wrote %d bytes", name, c.out.Len())
			}
			// The link is still good: nothing of the refused message is on it.
			if err := l.Send(Msg{Kind: KindDone}); err != nil {
				t.Errorf("%s: Send after a refused one: %v", name, err)
			}
		}
	})
}

// TestFrameOverhead pins what a message costs beyond its parameters: 36 bytes
// plus the codec name — under the 48 B/message gob averaged on tcp_mlp_topk,
// so no workload puts more on the socket than before.
func TestFrameOverhead(t *testing.T) {
	if n := len(encodeFrame(t, Msg{Kind: KindParams, Round: 1 << 20, NodeID: 15, Version: 1 << 20, LocalSteps: 10, Params: make([]float64, 100)})); n != 36+800 {
		t.Errorf("raw message of 100 params is %d bytes on the wire, want %d", n, 36+800)
	}
	if n := len(encodeFrame(t, Msg{Kind: KindUpdate, Codec: "topk", Payload: make([]byte, 1000)})); n != 40+1000 {
		t.Errorf("topk message of 1000 payload bytes is %d bytes on the wire, want %d", n, 40+1000)
	}
}

func TestTCPTruncatedFrameIsErrClosed(t *testing.T) {
	partial, _ := fullPartial(t)
	m := Msg{Kind: KindPartial, Round: 2, NodeID: 1, Params: []float64{1, 2, 3}, Codec: "topk", Payload: []byte{9, 8, 7, 6, 5}, Err: "e", Partial: partial}
	wire := encodeFrame(t, m)
	// Every cut, so every section boundary and every section's inside: the
	// prefix [0,4), header [4,36), params [36,60), payload [60,65), codec
	// name, err and the Partial block.
	for cut := 0; cut < len(wire); cut++ {
		_, err := recvBytes(wire[:cut])
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("peer died after %d of %d bytes: Recv = %v, want ErrClosed", cut, len(wire), err)
		}
	}
	if got, err := recvBytes(wire); err != nil {
		t.Fatalf("whole frame: %v", err)
	} else {
		sameMsg(t, got, m)
	}

	// The same over a real connection cut mid-params.
	big := encodeFrame(t, Msg{Kind: KindParams, Params: make([]float64, 7850)})
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		_, _ = b.Write(big[:100])
		_ = b.Close()
	}()
	if _, err := NewConnLink(a).Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("connection cut after 100 bytes: Recv = %v, want ErrClosed", err)
	}
}

// failConn accepts limit bytes and then fails every Write.
type failConn struct {
	scriptConn
	limit int
}

var errWire = errors.New("wire cut")

func (c *failConn) Write(p []byte) (int, error) {
	n := min(len(p), c.limit-c.out.Len())
	c.out.Write(p[:n])
	if n < len(p) {
		return n, errWire
	}
	return n, nil
}

// TestTCPSendFailureSticks: a Write that fails anywhere in a frame fails the
// Send and every later one — half a frame is on the wire — and never spins,
// whether the buffer it could not flush is nearly empty or nearly full.
func TestTCPSendFailureSticks(t *testing.T) {
	big := Msg{Kind: KindParams, Params: make([]float64, 25970), Codec: "raw", Payload: make([]byte, 2*bufSize), Partial: &Partial{}}
	total := len(encodeFrame(t, big))
	for _, limit := range []int{0, 3, prefixSize + headerSize, bufSize - 1, bufSize + 1, 70000, total - partialSize - 1, total - 1} {
		c := &failConn{limit: limit}
		l := NewConnLink(c)
		if err := l.Send(big); !errors.Is(err, errWire) {
			t.Errorf("limit %d: Send = %v, want the write error", limit, err)
		}
		if err := l.Send(Msg{Kind: KindDone}); !errors.Is(err, errWire) {
			t.Errorf("limit %d: Send after a failed one = %v, want the write error", limit, err)
		}
		if c.out.Len() != limit {
			t.Errorf("limit %d: %d bytes reached the wire", limit, c.out.Len())
		}
	}
}

// putU32 overwrites the little-endian u32 at off in a copy of wire.
func putU32(wire []byte, off int, v uint32) []byte {
	out := bytes.Clone(wire)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

func TestFrameRejectsMalformed(t *testing.T) {
	const (
		offVersion  = prefixSize + 0
		offFlags    = prefixSize + 2
		offNParams  = prefixSize + 20
		offNPayload = prefixSize + 24
		offNErr     = prefixSize + 28
	)
	good := encodeFrame(t, Msg{Kind: KindParams, Round: 1, Params: []float64{1, 2}, Codec: "q8", Payload: []byte{1, 2, 3}})
	setByte := func(off int, v byte) []byte {
		out := bytes.Clone(good)
		out[off] = v
		return out
	}
	cases := map[string][]byte{
		"length over MaxFrameBytes":        putU32(good, 0, MaxFrameBytes+1),
		"length 4 GiB":                     putU32(good, 0, math.MaxUint32),
		"length under the header":          putU32(good, 0, headerSize-1),
		"length zero":                      putU32(good, 0, 0),
		"length one short":                 putU32(good, 0, uint32(len(good)-prefixSize-1)),
		"length one long":                  putU32(good, 0, uint32(len(good)-prefixSize+1)),
		"payload length one long":          putU32(good, offNPayload, 4),
		"err length without an err":        putU32(good, offNErr, 1),
		"nParams*8 overflows 32 bits":      putU32(good, offNParams, 1<<29+2),
		"nParams max":                      putU32(good, offNParams, math.MaxUint32),
		"version 0":                        setByte(offVersion, 0),
		"version 1 (gob era)":              setByte(offVersion, 1),
		"version 2 (15-u64 Partial block)": setByte(offVersion, 2),
		"version from the future":          setByte(offVersion, frameVersion+1),
		"reserved flag bit 1":              setByte(offFlags, 1<<1),
		"reserved flag bit 7":              setByte(offFlags, 1<<7),
		"partial flag without block":       setByte(offFlags, flagPartial),
	}
	for name, wire := range cases {
		l := NewConnLink(script(wire))
		_, err := l.Recv()
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: Recv = %v, want ErrFrame", name, err)
			continue
		}
		// The stream offset is lost: the link stays failed.
		if _, again := l.Recv(); again != err {
			t.Errorf("%s: second Recv = %v, want the first error again", name, again)
		}
	}
	if _, err := recvBytes(good); err != nil {
		t.Fatalf("unmodified frame: %v", err)
	}
	if _, err := recvBytes(setByte(offVersion, 2)); err == nil || !strings.Contains(err.Error(), "format version 2, this binary speaks 3") {
		t.Errorf("version-2 frame: Recv = %v, want it refused by name", err)
	}
}

// TestFrameHostilePrefixAllocatesLittle: a peer that claims the largest frame
// there is and then goes away has cost the receiver a buffer and one eager
// section, not MaxFrameBytes. (gob sized its buffer from the claim.)
func TestFrameHostilePrefixAllocatesLittle(t *testing.T) {
	for name, h := range map[string]header{
		"params":  {kind: uint8(KindUpdate), nParams: (MaxFrameBytes - headerSize) / 8},
		"payload": {kind: uint8(KindUpdate), nPayload: MaxFrameBytes - headerSize},
		"err":     {kind: uint8(KindError), nErr: MaxFrameBytes - headerSize},
	} {
		wire := appendHeader(nil, h)
		wire = append(wire, make([]byte, 1000)...) // a little of the body, then gone
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := recvBytes(wire)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Recv = %v, want ErrClosed", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: a %d-byte frame claim with 1000 bytes behind it allocated %d bytes, want < 1 MiB", name, h.frameLen(), grew)
		}
	}
}

// TestFrameRefusesGobPeer: a binary from before this format streams
// encoding/gob at us. It must be told about the version, promptly.
func TestFrameRefusesGobPeer(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// Blocks in Write once the link stops reading; the deferred Close
		// releases it.
		_ = gob.NewEncoder(b).Encode(Msg{Kind: KindParams, Round: 1, Params: []float64{1, 2, 3}})
	}()
	done := make(chan error, 1)
	go func() {
		_, err := NewConnLink(a).Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "format version 1") {
			t.Fatalf("gob peer: Recv = %v, want ErrFrame naming format version 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv hangs on a gob stream")
	}
}

// FuzzFrameRecv feeds arbitrary bytes to Recv. Whatever comes back is either
// an error or a Msg that encodes to exactly the bytes consumed, and the
// receiver never allocates much more than it was sent.
func FuzzFrameRecv(f *testing.F) {
	for _, m := range seedMsgs(f) {
		wire := encodeFrame(f, m)
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
	}
	f.Add(appendHeader(nil, header{nParams: (MaxFrameBytes - headerSize) / 8}))
	var gobWire bytes.Buffer
	_ = gob.NewEncoder(&gobWire).Encode(Msg{Kind: KindParams, Params: []float64{1}})
	f.Add(gobWire.Bytes())

	f.Fuzz(func(t *testing.T, wire []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := recvBytes(wire)
		runtime.ReadMemStats(&after)
		// Sections double as bytes arrive (≤ 2× received) on top of one eager
		// section each for Params and Payload and the link's read buffer.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(wire)+2*eagerBytes+2*bufSize); grew > limit {
			t.Fatalf("%d bytes received, %d allocated (limit %d)", len(wire), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrFrame) && !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv error is neither ErrFrame nor ErrClosed: %v", err)
			}
			return
		}
		consumed := prefixSize + int(binary.LittleEndian.Uint32(wire))
		if again := encodeFrame(t, m); !bytes.Equal(again, wire[:consumed]) {
			t.Fatalf("accepted frame does not re-encode to itself:\n got % x\nwant % x", again, wire[:consumed])
		}
	})
}
