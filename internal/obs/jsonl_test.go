package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestJSONLGoldenSchema pins the exact serialized form of a fully populated
// round record. If this test changes, SchemaVersion must be bumped.
func TestJSONLGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	loss := 2.5
	for _, e := range []Event{
		{Type: TypeRoundStart, Round: 1, Iter: 0, T0: 5, Alive: 3},
		{Type: TypeBroadcast, Round: 1, Node: 0, Bytes: 80},
		{Type: TypeBroadcast, Round: 1, Node: 1, Bytes: 80},
		{Type: TypeNodeCompute, Round: 1, Node: 0, Dur: 1500 * time.Microsecond},
		{Type: TypeUpdate, Round: 1, Node: 0, Bytes: 80},
		{Type: TypeStaleApply, Round: 1, Node: 0, Value: 2},
		{Type: TypeStaleDrop, Round: 1, Node: 2, Value: 5},
		{Type: TypeBudgetFilter, Round: 1, Node: 2, Value: 0.125},
		{Type: TypeDrop, Round: 1, Node: 1, Cause: "recv update: timeout"},
		{Type: TypeReject, Round: 1, Node: 2, Cause: "non-finite update"},
		{Type: TypeRoundEnd, Round: 1, Iter: 5, T0: 5, Alive: 1,
			Dur: 2 * time.Millisecond, Value: 0.5, Dispersion: 0.25},
		{Type: TypeMetaLoss, Round: 1, Iter: 5, Value: loss},
	} {
		s.Observe(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	const golden = `{"schema":3,"round":1,"iter":5,"t0":5,"alive":1,"dur_ms":2,` +
		`"msgs":3,"bytes":240,"update_norm":0.5,"dispersion":0.25,"loss":2.5,` +
		`"dropped":[{"node":1,"cause":"recv update: timeout"}],` +
		`"rejected":[{"node":2,"cause":"non-finite update"}],` +
		`"stale_applied":1,"stale_dropped":1,"budget_filtered":1,` +
		`"nodes":[{"node":0,"compute_ms":1.5}],` +
		`"cum":{"rounds":1,"messages":3,"bytes":240,"dropped":1,"rejoined":0,"rejected":1,"skipped_rounds":0,"stale_applied":1,"stale_dropped":1,"budget_filtered":1}}`
	got := strings.TrimRight(buf.String(), "\n")
	if got != golden {
		t.Errorf("schema drift — bump SchemaVersion if intentional.\n got: %s\nwant: %s", got, golden)
	}
	// The compute-timing list is intentionally part of the schema too.
	var rec RoundRecord
	if err := json.Unmarshal([]byte(got), &rec); err != nil {
		t.Fatalf("golden line does not round-trip: %v", err)
	}
	if len(rec.Nodes) != 1 || rec.Nodes[0].ComputeMS != 1.5 {
		t.Errorf("node timing lost in round-trip: %+v", rec.Nodes)
	}
}

// TestDocsQuoteSchemaVersion keeps the prose honest: every "schema: N" in
// README.md and DESIGN.md must quote SchemaVersion.
func TestDocsQuoteSchemaVersion(t *testing.T) {
	quoted := regexp.MustCompile(`schema: (\d+)`)
	for _, name := range []string{"README.md", "DESIGN.md"} {
		doc, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		matches := quoted.FindAllSubmatch(doc, -1)
		if len(matches) == 0 {
			t.Errorf("%s no longer quotes the record schema version", name)
		}
		for _, m := range matches {
			if v, _ := strconv.Atoi(string(m[1])); v != SchemaVersion {
				t.Errorf("%s says %q, SchemaVersion is %d", name, m[0], SchemaVersion)
			}
		}
	}
}

func TestJSONLSkippedAndLossOmitted(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Observe(Event{Type: TypeRoundStart, Round: 1, T0: 5, Alive: 2})
	s.Observe(Event{Type: TypeRoundSkip, Round: 1, Alive: 2, Dur: time.Millisecond})
	s.Observe(Event{Type: TypeRoundStart, Round: 2, T0: 5, Alive: 2})
	s.Observe(Event{Type: TypeRoundEnd, Round: 2, Iter: 5, T0: 5, Alive: 2})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := parseLines(t, buf.Bytes())
	if len(lines) != 2 {
		t.Fatalf("got %d records, want 2", len(lines))
	}
	if !lines[0].Skipped || lines[0].Cum.SkippedRounds != 1 {
		t.Errorf("skip not recorded: %+v", lines[0])
	}
	if lines[0].Loss != nil || lines[1].Loss != nil {
		t.Error("loss must be omitted when never measured")
	}
	if strings.Contains(strings.Split(buf.String(), "\n")[0], `"loss"`) {
		t.Error("loss key serialized despite omitempty")
	}
	if lines[1].Cum.Rounds != 1 || lines[1].Cum.SkippedRounds != 1 {
		t.Errorf("cumulative totals wrong: %+v", lines[1].Cum)
	}
}

func TestJSONLWriteErrorIsSticky(t *testing.T) {
	w := &failWriter{}
	s := NewJSONLSink(w)
	s.Observe(Event{Type: TypeRoundStart, Round: 1, T0: 5, Alive: 2})
	s.Observe(Event{Type: TypeRoundStart, Round: 2, T0: 5, Alive: 2}) // flushes round 1 -> write fails
	s.Observe(Event{Type: TypeRoundStart, Round: 3, T0: 5, Alive: 2}) // must be a no-op
	err := s.Flush()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sticky error not surfaced: %v", err)
	}
	if w.calls != 1 {
		t.Errorf("%d writes attempted, want 1: the sink kept writing after the first failure", w.calls)
	}
	if cerr := s.Close(); cerr == nil {
		t.Error("Close must also surface the sticky error")
	}
}

type failWriter struct{ calls int }

func (w *failWriter) Write([]byte) (int, error) {
	w.calls++
	return 0, errors.New("disk full")
}

func parseLines(t *testing.T, data []byte) []RoundRecord {
	t.Helper()
	var out []RoundRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var r RoundRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("unparseable line %q: %v", sc.Text(), err)
		}
		if r.Schema != SchemaVersion {
			t.Fatalf("record schema %d, want %d", r.Schema, SchemaVersion)
		}
		out = append(out, r)
	}
	return out
}
