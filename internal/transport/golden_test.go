package transport

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// goldenPartialFrame is the exact frame Send writes for the KindPartial
// message in TestFramePartialGolden: the length prefix, the header one u32
// per row, then the two parameters and the 14 Partial-block fields one u64
// per row. The round-trip tests cannot see a field order changed on both the
// encode and the decode side; these bytes can. A layout change bumps
// frameVersion instead of editing this.
const goldenPartialFrame = `
a0 00 00 00
03 05 01 00
06 00 00 00
01 00 00 00
00 00 00 00
00 00 00 00
02 00 00 00
00 00 00 00
00 00 00 00
00 00 00 00 00 00 e0 3f
00 00 00 00 00 00 e0 bf
00 00 00 00 00 00 f4 bf
00 00 00 00 fc ff ff ff
00 00 00 00 00 00 0a c0
00 00 00 00 f8 ff ff ff
00 00 00 00 f6 ff ff ff
00 00 00 00 f4 ff ff ff
00 00 00 00 f2 ff ff ff
00 00 00 00 f0 ff ff ff
00 00 00 00 ee ff ff ff
00 00 00 00 ec ff ff ff
00 00 00 00 ea ff ff ff
00 00 00 00 e8 ff ff ff
00 00 00 00 e6 ff ff ff
00 00 00 00 e4 ff ff ff`

// TestFramePartialGolden pins a KindPartial frame byte for byte, with every
// Partial leaf distinct and using all 64 bits (fullPartial), so the block's
// field order is fixed on the wire and not only consistent with itself.
func TestFramePartialGolden(t *testing.T) {
	partial, _ := fullPartial(t)
	want := Msg{Kind: KindPartial, Round: 6, NodeID: 1, Params: []float64{0.5, -0.5}, Partial: partial}
	golden, err := hex.DecodeString(strings.Join(strings.Fields(goldenPartialFrame), ""))
	if err != nil {
		t.Fatal(err)
	}
	if wire := encodeFrame(t, want); !bytes.Equal(wire, golden) {
		t.Errorf("Send wrote\n% x\nwant\n% x", wire, golden)
	}
	got, err := recvBytes(golden)
	if err != nil {
		t.Fatal(err)
	}
	sameMsg(t, got, want)
}
