package eval

import "github.com/edgeai/fedml/internal/obs"

// TrafficTrajectory extracts the cumulative wire bytes after each round as
// a Series over cumulative local iterations — the joining key for
// accuracy-vs-bytes comparisons of update codecs. Skipped rounds still
// carried traffic (their broadcasts and probes were billed) and are kept.
func TrafficTrajectory(name string, rounds []obs.RoundRecord) *Series {
	s := &Series{Name: name}
	for _, r := range rounds {
		s.Add(r.Iter, float64(r.Cum.Bytes))
	}
	return s
}
