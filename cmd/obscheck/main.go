// Command obscheck validates a per-round metrics file produced by
// fedml -metrics-out: every line must parse as a schema-versioned round
// record, rounds must be strictly increasing with non-decreasing iteration
// counts, the cumulative block must never regress, and the sum of per-round
// traffic deltas must reconstruct the final cumulative totals exactly.
// It exits non-zero on the first violation, which makes it the checker
// behind `make obs-smoke`, `make shard-smoke`, and the CI observability job.
//
// Usage: obscheck <metrics.jsonl> [more.jsonl ...]   (or - for stdin)
//
// Each file validates independently; sharded runs (fedml train -shards) emit
// one stream for the director and one per shard aggregator, and all of them
// must satisfy the same schema and reconstruction invariants.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/edgeai/fedml/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: obscheck <metrics.jsonl> [more.jsonl ...]")
	}
	for _, arg := range args {
		if err := checkFile(arg, len(args) > 1, out); err != nil {
			return err
		}
	}
	return nil
}

// checkFile validates one metrics stream ("-" reads stdin). With prefix set
// the ok line names the file, so multi-file runs stay readable.
func checkFile(path string, prefix bool, out io.Writer) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	n, cum, err := validate(in)
	if err != nil {
		if path != "-" {
			return fmt.Errorf("%s: %w", path, err)
		}
		return err
	}
	if prefix {
		fmt.Fprintf(out, "%s: ", path)
	}
	fmt.Fprintf(out, "ok: %d records, %d rounds (%d skipped), %d messages, %d bytes, %d dropped, %d rejoined, %d rejected, %d stale applied, %d stale dropped, %d budget filtered\n",
		n, cum.Rounds, cum.SkippedRounds, cum.Messages, cum.Bytes, cum.Dropped, cum.Rejoined, cum.Rejected, cum.StaleApplied, cum.StaleDropped, cum.BudgetFiltered)
	return nil
}

// validate streams the records and returns the count and final cumulative
// totals, or the first violation found.
func validate(in io.Reader) (int, obs.Totals, error) {
	var (
		prev  obs.RoundRecord
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
		var r obs.RoundRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return n, prev.Cum, fmt.Errorf("record %d does not parse: %w", n, err)
		}
		if r.Schema != obs.SchemaVersion {
			return n, prev.Cum, fmt.Errorf("record %d has schema %d, want %d", n, r.Schema, obs.SchemaVersion)
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
			if err := cumMonotone(prev.Cum, r.Cum); err != nil {
				return n, prev.Cum, fmt.Errorf("record %d: %w", n, err)
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
		return 0, obs.Totals{}, fmt.Errorf("no records")
	}
	if msgs != prev.Cum.Messages || bytes != prev.Cum.Bytes {
		return n, prev.Cum, fmt.Errorf("delta sums (%d msgs, %d bytes) do not reconstruct final totals (%d, %d)",
			msgs, bytes, prev.Cum.Messages, prev.Cum.Bytes)
	}
	return n, prev.Cum, nil
}

func cumMonotone(a, b obs.Totals) error {
	old := a.Values()
	for i, v := range b.Values() {
		if v < old[i] {
			return fmt.Errorf("cumulative %s regressed from %d to %d", obs.CounterKeys[i], old[i], v)
		}
	}
	return nil
}
