package obs

import (
	"encoding/binary"
	"reflect"
	"strings"
)

// Totals is the communication and fault accounting of a training run: the
// counters core reports as CommStats, a run-state snapshot carries across a
// crash, and a shard aggregator reports up in every partial. It is declared
// once, here, because obs imports nothing internal, so every one of those
// packages can use it. Folding a trace's events reproduces the run's final
// counters exactly (the counter/event parity invariant, see observe). The
// JSON keys are the metrics records' cum block and the ExpvarSink map keys.
type Totals struct {
	// Rounds is the number of global aggregations.
	Rounds int `json:"rounds"`
	// Messages is the total number of parameter-bearing messages crossing
	// the platform's transport boundary. Downlink traffic — round
	// broadcasts and suspect re-probes — is billed per *attempted* send:
	// the transport offers no delivery acknowledgment, so a message lost
	// in flight (e.g. a chaos drop) still consumed the platform's uplink
	// and is counted. Uplink updates are billed per *delivered* message
	// only, including updates the sanitation guard later rejects; an
	// update lost in flight is observable only as a gather timeout and is
	// never counted.
	Messages int `json:"messages"`
	// Bytes is the payload volume of the messages counted above: the
	// encoded payload length of a codec message, 8 bytes per parameter of
	// a raw one. Frame headers are not billed.
	Bytes int64 `json:"bytes"`
	// Dropped counts nodes removed by fault-tolerant rounds. A node can be
	// dropped, rejoin, and be dropped again; each removal counts.
	Dropped int `json:"dropped"`
	// Rejoined counts suspect nodes re-admitted after answering a re-probe.
	Rejoined int `json:"rejoined"`
	// Rejected counts updates discarded by the sanitation guard (non-finite
	// values or norm explosions past core.Config.GuardRadius).
	Rejected int `json:"rejected"`
	// SkippedRounds counts fault-tolerant rounds that produced no usable
	// update and therefore aggregated nothing.
	SkippedRounds int `json:"skipped_rounds"`
	// StaleApplied counts async-mode updates applied at positive staleness
	// (weighted by StalenessDecay^s). Always zero on the sync path.
	StaleApplied int `json:"stale_applied"`
	// StaleDropped counts async-mode updates discarded because their
	// staleness exceeded MaxStaleness. Always zero on the sync path.
	StaleDropped int `json:"stale_dropped"`
	// BudgetFiltered counts sampled nodes excluded from a round because
	// their modeled energy cost exceeded the per-round energy budget
	// (core.Config.EnergyBudget). A filtered node stays in
	// the federation and may participate again — e.g. once the sync mask
	// shrinks the per-round traffic below its budget.
	BudgetFiltered int `json:"budget_filtered"`
}

const numCounters = 10

// BlockSize is the byte size of the binary block AppendBlock writes and
// ReadBlock reads, and the run-state file and the shard Partial frame carry:
// one little-endian 8-byte two's-complement value per counter, in
// declaration order.
const BlockSize = 8 * numCounters

// field points at one counter of a Totals. Bytes is the one int64 counter;
// every other one is an int.
type field struct {
	n   *int
	n64 *int64
}

func (f field) get() int64 {
	if f.n64 != nil {
		return *f.n64
	}
	return int64(*f.n)
}

func (f field) set(v int64) {
	if f.n64 != nil {
		*f.n64 = v
	} else {
		*f.n = int(v)
	}
}

// fields enumerates t's counters in declaration order. It is the one list of
// the counter set besides the declaration and observe: Add, Values and the
// binary block all go through it.
func (t *Totals) fields() [numCounters]field {
	return [numCounters]field{
		{n: &t.Rounds}, {n: &t.Messages}, {n64: &t.Bytes}, {n: &t.Dropped}, {n: &t.Rejoined},
		{n: &t.Rejected}, {n: &t.SkippedRounds}, {n: &t.StaleApplied}, {n: &t.StaleDropped}, {n: &t.BudgetFiltered},
	}
}

// CounterKeys are the counters' JSON keys in declaration order, the order of
// Values. They are read once from the struct tags, so the names have one
// source; callers must not modify them.
var CounterKeys = func() (keys [numCounters]string) {
	typ := reflect.TypeOf(Totals{})
	for i := range keys {
		keys[i], _, _ = strings.Cut(typ.Field(i).Tag.Get("json"), ",")
	}
	return keys
}()

// Values returns t's counters in declaration order.
func (t Totals) Values() (v [numCounters]int64) {
	for i, f := range t.fields() {
		v[i] = f.get()
	}
	return v
}

// Add accumulates o into t counter by counter.
func (t *Totals) Add(o Totals) {
	of := o.fields()
	for i, f := range t.fields() {
		f.set(f.get() + of[i].get())
	}
}

// AppendBlock appends t's BlockSize-byte binary block to b.
func (t Totals) AppendBlock(b []byte) []byte {
	for _, v := range t.Values() {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// ReadBlock sets t from the binary block at the start of b, which must hold
// at least BlockSize bytes.
func (t *Totals) ReadBlock(b []byte) {
	for i, f := range t.fields() {
		f.set(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
}

// observe folds one event into the totals. Each counter has exactly one
// event case, so adding a counter is one field above, its line in fields,
// and its case here.
func (t *Totals) observe(e Event) {
	switch e.Type {
	case TypeRoundEnd:
		t.Rounds++
	case TypeRoundSkip:
		t.SkippedRounds++
	case TypeBroadcast, TypeProbe, TypeUpdate:
		t.Messages++
		t.Bytes += e.Bytes
	case TypeDrop:
		t.Dropped++
	case TypeRejoin:
		t.Rejoined++
	case TypeReject:
		t.Rejected++
	case TypeStaleApply:
		t.StaleApplied++
	case TypeStaleDrop:
		t.StaleDropped++
	case TypeBudgetFilter:
		t.BudgetFiltered++
	}
}
