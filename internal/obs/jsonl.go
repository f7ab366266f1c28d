package obs

import (
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
