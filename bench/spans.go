package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"github.com/edgeai/fedml/internal/transport"
)

// Tracing lives entirely in the benchmark: every transport.Link the program
// is handed is wrapped in a spanLink that records one span per Send and per
// Recv into a preallocated buffer. The program's own code is untouched, so
// the spans sit exactly on the core↔transport boundary.

// Span names. The platform side is what core.RunPlatform (or RunDirector)
// drives; the node side is what core.RunNode (or RunShardAggregator) drives.
const (
	spanRound        = "core.round"
	spanPlatformSend = "platform.send"
	spanPlatformRecv = "platform.recv"
	spanNodeSend     = "node.send"
	spanNodeRecv     = "node.recv"
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer's epoch. Parent is the index (in the written trace) of the round
// span the interval belongs to, -1 for round spans and for traffic outside
// any round (the shutdown sweep).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Round  int    `json:"round"`
	Node   int    `json:"node"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer is the in-memory span buffer of one traced run. add is safe for
// concurrent use: each caller claims a distinct slot.
type tracer struct {
	epoch time.Time
	buf   []span
	n     atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	if i := t.n.Add(1) - 1; int(i) < len(t.buf) {
		t.buf[i] = s
	}
}

// spans returns the recorded spans and how many were lost to a full buffer.
// Call it only after every goroutine that adds spans has finished.
func (t *tracer) spans() (recorded []span, lost int) {
	n := int(t.n.Load())
	if n > len(t.buf) {
		return t.buf, n - len(t.buf)
	}
	return t.buf[:n], 0
}

// spanLink wraps a transport.Link and records a span around every Send and
// Recv. It adds two clock reads and one buffer write per operation.
type spanLink struct {
	inner      transport.Link
	tr         *tracer
	send, recv string
	node       int
}

var _ transport.Link = (*spanLink)(nil)

func (l *spanLink) Send(m transport.Msg) error {
	start := l.tr.now()
	err := l.inner.Send(m)
	l.tr.add(span{Name: l.send, Start: start, End: l.tr.now(), Round: m.Round, Node: l.node, Parent: -1})
	return err
}

func (l *spanLink) Recv() (transport.Msg, error) {
	start := l.tr.now()
	m, err := l.inner.Recv()
	l.tr.add(span{Name: l.recv, Start: start, End: l.tr.now(), Round: m.Round, Node: l.node, Parent: -1})
	return m, err
}

func (l *spanLink) Close() error { return l.inner.Close() }

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// union merges intervals into a sorted list of disjoint ranges.
func union(in []interval) []interval {
	s := make([]interval, 0, len(in))
	for _, iv := range in {
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:0]
	for _, iv := range s {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered returns how much of [lo, hi) the disjoint sorted ranges u cover.
func covered(u []interval, lo, hi int64) int64 {
	i := sort.Search(len(u), func(i int) bool { return u[i].hi > lo })
	var total int64
	for ; i < len(u) && u[i].lo < hi; i++ {
		a, b := u[i].lo, u[i].hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		total += b - a
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - covered(union(children), parent.lo, parent.hi)
}

// traceSummary is what the per-layer span metrics are computed from.
type traceSummary struct {
	// Per-round means, in milliseconds: the round interval split into the
	// part covered by platform Send spans, the rest covered by platform Recv
	// spans, and the remainder — the platform's self time.
	sendMS, waitMS, selfMS float64
	// nodeComputeMS holds every node-side Recv-return → next Send-call gap.
	nodeComputeMS []float64
	// nodeIdleShare is node time blocked in Recv over node wall time.
	nodeIdleShare float64
	// stragglerGapMS holds, per round, last − median update arrival.
	stragglerGapMS []float64
}

// roundLog is the benchmark's Config.OnRound record: when the platform call
// started, and the time and round number of every OnRound call. Times are on
// the clock the spans use.
type roundLog struct {
	start int64
	ends  []int64
	nums  []int
}

// gapsMS returns the time between successive OnRound calls (the first gap
// runs from the start of the platform call), in milliseconds.
func (rl *roundLog) gapsMS() []float64 {
	out := make([]float64, len(rl.ends))
	lo := rl.start
	for i, hi := range rl.ends {
		out[i] = float64(hi-lo) / 1e6
		lo = hi
	}
	return out
}

// summarize computes the span metrics over the round intervals of rl.
//
// A platform Recv span is clipped to start no earlier than the end of the
// Send that dispatched its round to the same node: in strict mode this is a
// no-op (the platform receives only after it has sent), while the
// fault-tolerant path's pump goroutines sit in Recv permanently and would
// otherwise paint every round as 100 % gather wait.
func summarize(spans []span, rl *roundLog) traceSummary {
	type key struct{ round, node int }
	sentAt := make(map[key]int64)
	for _, s := range spans {
		if s.Name == spanPlatformSend && s.Round > 0 {
			sentAt[key{s.Round, s.Node}] = s.End
		}
	}
	var sends, both []interval
	var arrivals []int64
	perNode := make(map[int][]span)
	for _, s := range spans {
		switch s.Name {
		case spanPlatformSend:
			sends = append(sends, interval{s.Start, s.End})
			both = append(both, interval{s.Start, s.End})
		case spanPlatformRecv:
			lo := s.Start
			if at, ok := sentAt[key{s.Round, s.Node}]; ok && at > lo {
				lo = at
			}
			both = append(both, interval{lo, s.End})
			if s.Round > 0 {
				arrivals = append(arrivals, s.End)
			}
		case spanNodeSend, spanNodeRecv:
			perNode[s.Node] = append(perNode[s.Node], s)
		}
	}
	sendU, bothU := union(sends), union(both)
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })

	var sum traceSummary
	var sendNS, waitNS, selfNS int64
	lo, a := rl.start, 0
	for _, hi := range rl.ends {
		s := covered(sendU, lo, hi)
		b := covered(bothU, lo, hi)
		sendNS += s
		waitNS += b - s
		selfNS += hi - lo - b
		from := a
		for a < len(arrivals) && arrivals[a] < hi {
			a++
		}
		if got := arrivals[from:a]; len(got) > 0 {
			mid := got[len(got)/2]
			if len(got)%2 == 0 {
				mid = (got[len(got)/2-1] + got[len(got)/2]) / 2
			}
			sum.stragglerGapMS = append(sum.stragglerGapMS, float64(got[len(got)-1]-mid)/1e6)
		}
		lo = hi
	}
	if n := float64(len(rl.ends)); n > 0 {
		sum.sendMS = float64(sendNS) / 1e6 / n
		sum.waitMS = float64(waitNS) / 1e6 / n
		sum.selfMS = float64(selfNS) / 1e6 / n
	}

	var idleNS, wallNS int64
	for _, ns := range perNode {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start < ns[j].Start })
		wallNS += ns[len(ns)-1].End - ns[0].Start
		lastRecvEnd := int64(-1)
		for _, s := range ns {
			if s.Name == spanNodeRecv {
				idleNS += s.dur()
				lastRecvEnd = s.End
			} else if lastRecvEnd >= 0 {
				sum.nodeComputeMS = append(sum.nodeComputeMS, float64(s.Start-lastRecvEnd)/1e6)
				lastRecvEnd = -1
			}
		}
	}
	if wallNS > 0 {
		sum.nodeIdleShare = float64(idleNS) / float64(wallNS)
	}
	return sum
}

// writeTrace stores the spans of one traced run as JSON: one core.round span
// per OnRound interval followed by the link spans in start order, each
// pointing at its round span through parent.
func writeTrace(path string, spans []span, rl *roundLog) error {
	out := make([]span, 0, len(rl.ends)+len(spans))
	parent := make(map[int]int, len(rl.ends))
	lo := rl.start
	for i, hi := range rl.ends {
		parent[rl.nums[i]] = len(out)
		out = append(out, span{Name: spanRound, Start: lo, End: hi, Round: rl.nums[i], Parent: -1})
		lo = hi
	}
	links := append([]span(nil), spans...)
	sort.Slice(links, func(i, j int) bool { return links[i].Start < links[j].Start })
	for _, s := range links {
		if p, ok := parent[s.Round]; ok {
			s.Parent = p
		}
		out = append(out, s)
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
