package checkpoint

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenRunStateV2 is the exact v2 file SaveRunState writes for the state in
// TestRunStateGoldenV2, one header field per row. The round-trip tests cannot
// see a field order changed on both the encode and the decode side; these
// bytes can, so every binary that reads v2 must produce and accept them as
// they are. A layout change bumps RunStateVersion instead of editing this.
const goldenRunStateV2 = `
46 4d 52 53 02
03 00 00 00 00 00 00 00
03 00 00 00 00 02 00 00
07 00 00 00 00 00 00 00
00 00 00 00 00 00 d8 bf
ef 03 00 00 00 00 00 00
d7 07 00 00 00 00 00 00
bf 0b 00 00 00 00 00 00
a7 0f 00 00 00 00 00 00
8f 13 00 00 00 00 00 00
77 17 00 00 00 00 00 00
5f 1b 00 00 00 00 00 00
47 1f 00 00 00 00 00 00
2f 23 00 00 00 00 00 00
17 27 00 00 00 00 00 00
03 00 00 00
9a 99 99 99 99 99 b9 3f
9a 99 99 99 99 99 c9 bf
33 33 33 33 33 33 d3 3f
98 01 b3 22`

// TestRunStateGoldenV2 pins the v2 snapshot byte for byte: magic, version,
// Round, Iter, T0, Dispersion, the ten counters in declaration order (each
// distinct, from everyCounterSet), n, θ and the CRC-32C.
func TestRunStateGoldenV2(t *testing.T) {
	// Unkeyed on purpose: the literal follows the on-disk field order.
	want := &RunState{RunStateVersion, 3, 1<<41 + 3, 7, -0.375, []float64{0.1, -0.2, 0.3}, everyCounterSet()}
	golden, err := hex.DecodeString(strings.Join(strings.Fields(goldenRunStateV2), ""))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.state")
	if err := SaveRunState(path, want); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Errorf("SaveRunState wrote\n% x\nwant\n% x", written, golden)
	}

	got, err := writeLoad(t, golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LoadRunState read %+v, want %+v", got, want)
	}
}
