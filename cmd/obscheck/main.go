// Command obscheck validates a per-round metrics file produced by
// fedml -metrics-out with obs.ValidateJSONL: every line must parse as a
// schema-versioned round record, rounds must be strictly increasing with
// non-decreasing iteration counts, the cumulative block must never regress,
// and the sum of per-round traffic deltas must reconstruct the final
// cumulative totals exactly. It prints the totals and exits non-zero on the
// first violation. cmd/fedml's TestRunsPinned applies the same check to
// every metrics stream its scenarios write.
//
// Usage: obscheck <metrics.jsonl> [more.jsonl ...]   (or - for stdin)
//
// Each file validates independently; sharded runs (fedml train -shards) emit
// one stream for the director and one per shard aggregator, and all of them
// must satisfy the same schema and reconstruction invariants.
package main

import (
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
	n, cum, err := obs.ValidateJSONL(in)
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
