package core

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
)

// SyncMaskPolicy is the partial-parameter sync policy: after Warmup rounds of
// full synchronization the platform freezes every coordinate outside Ranges
// and keeps syncing only the masked subset (typically the model's output
// head, via nn.HeadSegments). Broadcasts and updates then travel as masked
// payloads (codec.Masked) carrying only the live coordinates, which is where
// the communication — and, under an EnergyModel, the radio energy — saving
// comes from.
//
// The round schedule, shared by every aggregator and node by construction
// (the mask is a pure function of the round number, and the wire format is
// self-describing):
//
//   - Rounds 1..Warmup-1: full broadcasts, full aggregation.
//   - Round Warmup: the last full broadcast. Its aggregation already pins the
//     frozen coordinates (restoreFrozen), so the θ the nodes just received
//     stays bit-identical outside the mask from here on — the reference the
//     masked scatter on both ends depends on.
//   - Rounds Warmup+1...: masked broadcasts and masked replies; aggregation
//     touches only masked coordinates.
//
// Recovery composes with the suspect/probe/resync protocol: a re-probe
// resets the link's codec chains, so the next masked payload is an inner
// full sync of the masked set only (the cheap, common case — chaos losses
// with node state intact). A node that lost its full reference entirely
// (restarted process, or a platform resumed from a checkpoint) keeps failing
// masked probes; after two consecutive failures the link escalates to one
// full unmasked payload that re-establishes the reference, and the full
// reply it triggers is projected onto the mask before aggregation so frozen
// coordinates still cannot drift.
type SyncMaskPolicy struct {
	// Warmup is the number of leading full-sync rounds; must be >= 1. The
	// mask engages on round Warmup+1.
	Warmup int
	// Ranges are the coordinates that keep syncing after warmup: sorted,
	// non-overlapping, non-empty. ResolveSyncMask builds them from a model's
	// segment layout.
	Ranges []codec.Range
}

// Validate checks the policy's shape. The upper dimension bound is checked
// against the model at run start (validateDim), when it is known.
func (p *SyncMaskPolicy) Validate() error {
	if p.Warmup < 1 {
		return fmt.Errorf("core: sync mask warmup %d, want >= 1", p.Warmup)
	}
	if len(p.Ranges) == 0 {
		return fmt.Errorf("core: sync mask has no ranges")
	}
	prev := 0
	for i, r := range p.Ranges {
		if r.Lo < prev || r.Hi <= r.Lo {
			return fmt.Errorf("core: sync mask range %d [%d,%d) unsorted, overlapping, or empty", i, r.Lo, r.Hi)
		}
		prev = r.Hi
	}
	return nil
}

// validateDim checks the mask against the model dimension.
func (p *SyncMaskPolicy) validateDim(dim int) error {
	if err := codec.ValidRanges(p.Ranges, dim); err != nil {
		return fmt.Errorf("core: sync mask does not fit the model: %w", err)
	}
	return nil
}

// maskFor returns the wire mask for round's parameter traffic: nil (full
// sync) through the warmup, the configured ranges afterwards.
func (p *SyncMaskPolicy) maskFor(round int) []codec.Range {
	if p == nil || round <= p.Warmup {
		return nil
	}
	return p.Ranges
}

// frozenAt reports whether round's aggregation must preserve the frozen
// coordinates. It engages one round before maskFor — the last full
// broadcast's aggregation already pins them, so the reference the nodes hold
// going into the first masked round matches the platform's θ exactly.
func (p *SyncMaskPolicy) frozenAt(round int) bool {
	return p != nil && round >= p.Warmup
}

// restoreFrozen copies saved into theta outside mask — the frozen
// coordinates — leaving the masked coordinates at their aggregated values.
// saved is the θ broadcast at the start of the round, whose frozen
// coordinates are the canonical values: every accepted update carries them
// bit-exactly (masked replies scatter into θ, full replies are projected),
// but the weighted average (Σωθ_f)/(Σω) of identical values is not
// bit-identical to θ_f in floating point, so the aggregation loop restores
// them explicitly.
func restoreFrozen(theta, saved tensor.Vec, mask []codec.Range) {
	projectMask(theta, saved, mask)
}

// projectMask overwrites u outside mask with the corresponding coordinates
// of theta: the uniform acceptance rule under an active mask — whatever a
// node sent, the vector that aggregates is θ outside the mask and the
// node's values inside it.
func projectMask(u, theta []float64, mask []codec.Range) {
	lo := 0
	for _, r := range mask {
		copy(u[lo:r.Lo], theta[lo:r.Lo])
		lo = r.Hi
	}
	copy(u[lo:], theta[lo:])
}

// ResolveSyncMask parses a sync-mask spec against a concrete model. The
// supported form is "head:<warmup>" — freeze everything but the model's
// output-layer segments (nn.HeadSegments) after <warmup> full rounds. The
// empty spec resolves to nil (no masking).
func ResolveSyncMask(spec string, m nn.Model) (*SyncMaskPolicy, error) {
	if spec == "" {
		return nil, nil
	}
	name, warmStr, ok := strings.Cut(spec, ":")
	if !ok || name != "head" {
		return nil, fmt.Errorf("core: sync mask spec %q, want \"head:<warmup>\"", spec)
	}
	warmup, err := strconv.Atoi(warmStr)
	if err != nil || warmup < 1 {
		return nil, fmt.Errorf("core: sync mask warmup %q, want a positive integer", warmStr)
	}
	ranges, err := headRanges(m)
	if err != nil {
		return nil, err
	}
	return &SyncMaskPolicy{Warmup: warmup, Ranges: ranges}, nil
}
