package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"net"
	"testing"

	"github.com/edgeai/fedml/internal/data"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{5, 3, 50},     // too few samples for any tail: the median
		{20, 10.5, 50}, // ten beyond would be the median itself
		{21, 11, 100 * 11.0 / 21},
		{100, 90, 90},   // s[89] = 90 has exactly ten samples beyond it
		{1000, 990, 99}, // p99
		{10000, 9990, 99.9},
	} {
		value, pct, n := tail(seq(tc.n))
		if n != tc.n || value != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("tail(1..%d) = (%v, p%v, n=%d), want (%v, p%v)", tc.n, value, pct, n, tc.value, tc.pct)
		}
	}
	// Exactly tailBeyond samples lie strictly beyond the reported value.
	xs := seq(137)
	value, _, _ := tail(xs)
	beyond := 0
	for _, x := range xs {
		if x > value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"serial children", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}, {145, 155}}, 50},
		{"children clipped to the parent", []interval{{50, 120}, {190, 300}}, 70},
		{"child covers everything", []interval{{0, 1000}}, 0},
		{"empty and outside children ignored", []interval{{130, 130}, {300, 400}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSummarizeSplitsRounds(t *testing.T) {
	// Two rounds of two nodes, strict mode: the platform sends to both, then
	// receives from both. Times in ms for readability.
	ms := func(x float64) int64 { return int64(x * 1e6) }
	sp := func(name string, lo, hi float64, round, node int) span {
		return span{Name: name, Start: ms(lo), End: ms(hi), Round: round, Node: node}
	}
	spans := []span{
		// round 1: [0, 10)
		sp(spanPlatformSend, 0, 1, 1, 0), sp(spanPlatformSend, 1, 2, 1, 1),
		sp(spanNodeRecv, 0, 1, 1, 0), sp(spanNodeRecv, 0, 2, 1, 1),
		sp(spanNodeSend, 5, 5.5, 1, 0), sp(spanNodeSend, 8, 8.5, 1, 1),
		sp(spanPlatformRecv, 2, 5.5, 1, 0), sp(spanPlatformRecv, 6, 8.5, 1, 1),
		// round 2: [10, 18); node 1's Recv is a pump that has been waiting
		// since before the round was dispatched, so it is clipped to the end
		// of the round-2 Send to node 1 (12).
		sp(spanPlatformSend, 10, 11, 2, 0), sp(spanPlatformSend, 11, 12, 2, 1),
		sp(spanNodeRecv, 5.5, 11, 2, 0), sp(spanNodeRecv, 8.5, 12, 2, 1),
		sp(spanNodeSend, 14, 14.5, 2, 0), sp(spanNodeSend, 16, 16.5, 2, 1),
		sp(spanPlatformRecv, 12, 14.5, 2, 0), sp(spanPlatformRecv, 8.5, 16.5, 2, 1),
	}
	rl := &roundLog{start: 0, ends: []int64{ms(10), ms(18)}, nums: []int{1, 2}}
	s := summarize(spans, rl)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Sends cover 2 ms of each round.
	near("send", s.sendMS, 2)
	// Round 1: recv covers [2,5.5)+[6,8.5) = 6; round 2: [12,16.5) = 4.5.
	near("wait", s.waitMS, (6+4.5)/2)
	// Round 1: 10 − 2 − 6 = 2; round 2: 8 − 2 − 4.5 = 1.5.
	near("self", s.selfMS, (2+1.5)/2)
	near("send+wait+self", s.sendMS+s.waitMS+s.selfMS, (10.0+8.0)/2)
	// Node compute: Recv-return → Send-call: 4, 6, 3, 4.
	if got := median(s.nodeComputeMS); len(s.nodeComputeMS) != 4 || got != 4 {
		t.Errorf("node compute %v, median %v, want 4 samples with median 4", s.nodeComputeMS, got)
	}
	// Straggler gap: last − median arrival: (8.5 − 7) and (16.5 − 15.5).
	if len(s.stragglerGapMS) != 2 || s.stragglerGapMS[0] != 1.5 || s.stragglerGapMS[1] != 1 {
		t.Errorf("straggler gaps %v, want [1.5 1]", s.stragglerGapMS)
	}
	// Node idle: node 0 recv 1+5.5 of [0,14.5]; node 1 recv 2+3.5 of [0,16.5].
	near("idle share", s.nodeIdleShare, (6.5+5.5)/(14.5+16.5))
}

func federationHash(t *testing.T, w workload, seed uint64) string {
	t.Helper()
	fed, _, err := w.federation(seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(nodes []*data.NodeDataset) {
		for _, nd := range nodes {
			for _, s := range nd.All() {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(s.Y))
				h.Write(b[:])
				for _, x := range s.X {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
		}
	}
	put(fed.Sources)
	put(fed.Targets)
	return hex.EncodeToString(h.Sum(nil))
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		if w.dataset == "sim" {
			continue // its inputs are generated inside the run; the smoke test compares θ
		}
		a, b, c := federationHash(t, w, 7), federationHash(t, w, 7), federationHash(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different federations", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same federation", w.name)
		}
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := &countingConn{Conn: a}, &countingConn{Conn: b}
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 300)
		if _, err := io.ReadFull(cb, buf); err != nil {
			done <- err
			return
		}
		_, err := cb.Write(buf[:120])
		done <- err
	}()
	if _, err := ca.Write(make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(ca, make([]byte, 120)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ca.written.Load() != 300 || ca.read.Load() != 120 || ca.total() != 420 {
		t.Errorf("a: wrote %d read %d total %d, want 300/120/420", ca.written.Load(), ca.read.Load(), ca.total())
	}
	if cb.read.Load() != 300 || cb.written.Load() != 120 {
		t.Errorf("b: read %d wrote %d, want 300/120", cb.read.Load(), cb.written.Load())
	}
	_ = ca.Close()
	_ = cb.Close()
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{60, 100, 140, 80, 120}
	for _, tc := range []struct {
		name    string
		better  string
		a, b    float64
		sa, sb  []float64
		slack   float64
		verdict string
	}{
		{"within the bound", "lower", 100, 109, steady, steady, 0, "ok"},
		{"better is always ok", "lower", 100, 50, steady, steady, 0, "ok"},
		{"worse beyond the bound", "lower", 100, 111, steady, steady, 0, "worse"},
		{"higher-is-better worse", "higher", 100, 89, steady, steady, 0, "worse"},
		{"higher-is-better better", "higher", 100, 150, steady, steady, 0, "ok"},
		{"spread wider than the bound", "lower", 100, 120, steady, noisy, 0, "unresolved"},
		{"absolute slack", "lower", 0.002, 0.004, nil, nil, 0.05, "ok"},
	} {
		if got := judge(tc.better, 0.10, tc.slack, tc.a, tc.b, tc.sa, tc.sb); got != tc.verdict {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.verdict)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the tables in this
// package in step: same workloads, same metric names, units and directions.
func TestBenchmarkJSONAgrees(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, table %q (why must match too)", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, table %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)
}

// TestQuickSmoke executes both passes of all six workloads at tiny round
// counts and checks that every declared metric appears exactly once with a
// finite value and that every correctness check holds. No timing is asserted.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			rec, err := measure(w, options{seed: 3, seconds: 1, trace: trace, out: dir, quick: true})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			for _, c := range rec.Checks {
				if !c.OK {
					t.Errorf("%s trace %d: check %s failed: %s", w.name, trace, c.Name, c.Detail)
				}
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s = %+v (present %v)", w.name, trace, d.Name, m, ok)
				}
			}
			if w.deterministic() && rec.ThetaSHA256 == "" {
				t.Errorf("%s trace %d: no θ hash", w.name, trace)
			}
		}
	}
}
