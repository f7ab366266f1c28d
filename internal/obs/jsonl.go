package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONLSink writes one JSON line per round (RoundRecord, schema-versioned).
// It is safe for concurrent use — the platform loop and node goroutines emit
// into it directly on the fault-tolerant async path — and failure-sticky: the
// first write or encode error stops further output and surfaces from Close,
// so a full disk cannot crash or stall training.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer // nil unless the sink owns the destination
	b   builder
	err error
}

var _ RoundObserver = (*JSONLSink)(nil)

// NewJSONLSink writes records to w. The caller owns w; Close flushes the
// pending record but does not close w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// CreateJSONL creates (truncating) path and returns a sink that owns the
// file: Close flushes and closes it.
func CreateJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create metrics sink: %w", err)
	}
	return &JSONLSink{w: f, c: f}, nil
}

// Observe implements RoundObserver.
func (s *JSONLSink) Observe(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if done := s.b.observe(e); done != nil {
		s.write(done)
	}
}

// write marshals one record; called with mu held.
func (s *JSONLSink) write(r *RoundRecord) {
	data, err := json.Marshal(r)
	if err != nil {
		s.err = fmt.Errorf("obs: encode round %d: %w", r.Round, err)
		return
	}
	data = append(data, '\n')
	if _, err := s.w.Write(data); err != nil {
		s.err = fmt.Errorf("obs: write round %d: %w", r.Round, err)
	}
}

// Flush writes the open round record, if any, and reports the sticky error.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if done := s.b.flush(); done != nil && s.err == nil {
		s.write(done)
	}
	return s.err
}

// Close flushes, closes an owned destination, and returns the first error
// the sink encountered.
func (s *JSONLSink) Close() error {
	err := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil {
		if cerr := s.c.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("obs: close metrics sink: %w", cerr)
		}
		s.c = nil
	}
	return err
}

// ValidateJSONL reads a stream a JSONLSink wrote and returns its record
// count and final cumulative totals, or the first violation: every line
// must parse as a RoundRecord of SchemaVersion, rounds must rise strictly
// with non-decreasing iteration counts, no cumulative counter may regress,
// and the per-round traffic deltas must sum to the final totals exactly.
func ValidateJSONL(in io.Reader) (int, Totals, error) {
	var (
		prev  RoundRecord
		n     int
		msgs  int
		bytes int64
	)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n++
		var r RoundRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return n, prev.Cum, fmt.Errorf("record %d does not parse: %w", n, err)
		}
		if r.Schema != SchemaVersion {
			return n, prev.Cum, fmt.Errorf("record %d has schema %d, want %d", n, r.Schema, SchemaVersion)
		}
		if r.Round < 1 {
			return n, prev.Cum, fmt.Errorf("record %d has round %d < 1", n, r.Round)
		}
		if r.Msgs < 0 || r.Bytes < 0 {
			return n, prev.Cum, fmt.Errorf("record %d has negative traffic delta (%d msgs, %d bytes)", n, r.Msgs, r.Bytes)
		}
		if n > 1 {
			if r.Round <= prev.Round {
				return n, prev.Cum, fmt.Errorf("record %d: round %d not above previous round %d", n, r.Round, prev.Round)
			}
			if r.Iter < prev.Iter {
				return n, prev.Cum, fmt.Errorf("record %d: iter %d regressed from %d", n, r.Iter, prev.Iter)
			}
			old := prev.Cum.Values()
			for i, v := range r.Cum.Values() {
				if v < old[i] {
					return n, prev.Cum, fmt.Errorf("record %d: cumulative %s regressed from %d to %d", n, CounterKeys[i], old[i], v)
				}
			}
		}
		msgs += r.Msgs
		bytes += r.Bytes
		prev = r
	}
	if err := sc.Err(); err != nil {
		return n, prev.Cum, err
	}
	if n == 0 {
		return 0, Totals{}, fmt.Errorf("no records")
	}
	if msgs != prev.Cum.Messages || bytes != prev.Cum.Bytes {
		return n, prev.Cum, fmt.Errorf("delta sums (%d msgs, %d bytes) do not reconstruct final totals (%d, %d)",
			msgs, bytes, prev.Cum.Messages, prev.Cum.Bytes)
	}
	return n, prev.Cum, nil
}
