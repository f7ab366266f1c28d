package obs

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// distinctTotals gives every Totals field, found by reflection in
// declaration order, a distinct value that needs all 64 bits, and returns
// the values in that order.
func distinctTotals(seed int64) (Totals, []int64) {
	var tot Totals
	v := reflect.ValueOf(&tot).Elem()
	vals := make([]int64, v.NumField())
	for i := range vals {
		vals[i] = -(int64(i+1) << 33) - seed
		v.Field(i).SetInt(vals[i])
	}
	return tot, vals
}

// TestTotalsBlockFollowsDeclaration pins the one enumeration to the
// declaration: Values yields every field in declaration order, CounterKeys
// their JSON keys, and the binary block is those values as little-endian u64s.
func TestTotalsBlockFollowsDeclaration(t *testing.T) {
	tot, want := distinctTotals(1)
	typ := reflect.TypeOf(tot)
	if typ.NumField() != numCounters || BlockSize != 8*numCounters {
		t.Fatalf("Totals has %d fields, numCounters is %d, BlockSize %d", typ.NumField(), numCounters, BlockSize)
	}
	vals := tot.Values()
	for i := range want {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if CounterKeys[i] != key || vals[i] != want[i] {
			t.Errorf("counter %d = %s:%d, want %s:%d (field %s)", i, CounterKeys[i], vals[i], key, want[i], typ.Field(i).Name)
		}
	}

	block := tot.AppendBlock([]byte{0xAA})
	if len(block) != 1+BlockSize || block[0] != 0xAA {
		t.Fatalf("AppendBlock wrote %d bytes after the prefix (prefix now %#x), want %d", len(block)-1, block[0], BlockSize)
	}
	for i, w := range want {
		if got := int64(binary.LittleEndian.Uint64(block[1+8*i:])); got != w {
			t.Errorf("block slot %d = %d, want %s = %d", i, got, typ.Field(i).Name, w)
		}
	}
	var back Totals
	back.ReadBlock(block[1:])
	if back != tot {
		t.Errorf("ReadBlock gave %+v, want %+v", back, tot)
	}
}

func TestTotalsAdd(t *testing.T) {
	a, av := distinctTotals(1)
	b, bv := distinctTotals(7)
	a.Add(b)
	for i, v := range a.Values() {
		if want := av[i] + bv[i]; v != want {
			t.Errorf("%s = %d after Add, want %d", CounterKeys[i], v, want)
		}
	}
}

// TestTotalsAllocs: the block codec, Add and Values run per partial frame,
// per snapshot and per expvar event, and allocate nothing.
func TestTotalsAllocs(t *testing.T) {
	a, _ := distinctTotals(1)
	b, _ := distinctTotals(2)
	buf := make([]byte, 0, BlockSize)
	if n := testing.AllocsPerRun(100, func() {
		a.Add(b)
		buf = a.AppendBlock(buf[:0])
		b.ReadBlock(buf)
		_ = b.Values()
	}); n != 0 {
		t.Errorf("%v allocs per run, want 0", n)
	}
}
