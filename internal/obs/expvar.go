package obs

import "expvar"

// ExpvarSink publishes the Totals counters as an expvar.Map, so a live
// training process serves them at /debug/vars next to net/http/pprof (the
// cmd/fedml -pprof endpoint). The map keys are the Totals JSON keys: rounds,
// messages, bytes, dropped, rejoined, rejected, skipped_rounds,
// stale_applied, stale_dropped, budget_filtered.
type ExpvarSink struct {
	m *expvar.Map
}

var _ RoundObserver = (*ExpvarSink)(nil)

// NewExpvarSink publishes (or reuses and resets) the named expvar map.
// Reuse matters because expvar panics on duplicate registration and tests
// and long-lived processes may build more than one sink per name.
func NewExpvarSink(name string) *ExpvarSink {
	if v := expvar.Get(name); v != nil {
		if m, ok := v.(*expvar.Map); ok {
			m.Init()
			return &ExpvarSink{m: m}
		}
	}
	return &ExpvarSink{m: expvar.NewMap(name)}
}

// Observe implements RoundObserver: it folds e into a zero Totals and adds
// the counters it moved. expvar.Map is internally synchronized.
func (s *ExpvarSink) Observe(e Event) {
	var d Totals
	d.observe(e)
	for i, v := range d.Values() {
		if v != 0 {
			s.m.Add(CounterKeys[i], v)
		}
	}
}
