package core

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func randomUpdates(seed uint64, n, dim int) ([]tensor.Vec, []float64) {
	r := rng.New(seed)
	us := make([]tensor.Vec, n)
	ws := make([]float64, n)
	for i := range us {
		u := tensor.NewVec(dim)
		for d := range u {
			u[d] = r.Norm()
		}
		us[i] = u
		ws[i] = 0.5 + r.Float64()
	}
	return us, ws
}

func TestAggCoreMatchesNaiveSum(t *testing.T) {
	const n, dim = 13, 7
	us, ws := randomUpdates(21, n, dim)
	agg := newAggCore(0, n, dim)
	for i := range us {
		agg.accept(i, us[i].Clone(), ws[i])
	}
	sum, wsum, count := agg.reduce()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	var naiveW float64
	naive := tensor.NewVec(dim)
	for i := range us {
		for d := range naive {
			naive[d] += ws[i] * us[i][d]
		}
		naiveW += ws[i]
	}
	if math.Abs(wsum-naiveW) > 1e-12*naiveW {
		t.Errorf("wsum = %v, naive %v", wsum, naiveW)
	}
	for d := range naive {
		if math.Abs(sum[d]-naive[d]) > 1e-12*(1+math.Abs(naive[d])) {
			t.Errorf("sum[%d] = %v, naive %v", d, sum[d], naive[d])
		}
	}
}

func TestShardRangesAlign(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 10, 16, 33, 100, 1000} {
		for _, s := range []int{1, 2, 3, 4, 5, 8, 16} {
			ranges := ShardRanges(n, s)
			want := s
			if want > n {
				want = n
			}
			if len(ranges) != want {
				t.Errorf("ShardRanges(%d, %d) produced %d ranges, want %d", n, s, len(ranges), want)
			}
			if err := validateRanges(n, ranges); err != nil {
				t.Errorf("ShardRanges(%d, %d) invalid: %v", n, s, err)
			}
		}
	}
}

func TestValidateRangesRejects(t *testing.T) {
	cases := []struct {
		n      int
		ranges []ShardRange
	}{
		{10, nil},
		{10, []ShardRange{{0, 4}, {5, 10}}},           // gap
		{10, []ShardRange{{0, 5}, {5, 9}}},            // short
		{10, []ShardRange{{0, 3}, {3, 10}}},           // off the midpoint (5)
		{16, []ShardRange{{0, 8}, {8, 10}, {10, 16}}}, // right half split off its midpoint (12)
	}
	for _, c := range cases {
		if err := validateRanges(c.n, c.ranges); err == nil {
			t.Errorf("validateRanges(%d, %v) accepted a bad layout", c.n, c.ranges)
		}
	}
}

// TestMergeCoreBitExact is the tentpole's composition theorem as a test: a
// flat core over [0, n) and a two-tier reduction (per-shard cores merged by
// a merge core) must produce bit-identical sums and weight folds for any
// aligned shard layout and any pattern of absent nodes, because both
// associate by the same fixed midpoint recursion.
func TestMergeCoreBitExact(t *testing.T) {
	const dim = 5
	r := rng.New(77)
	for _, n := range []int{1, 2, 3, 7, 10, 19, 64, 100} {
		for _, s := range []int{1, 2, 3, 4, 7} {
			us, ws := randomUpdates(uint64(1000+n*10+s), n, dim)
			present := make([]bool, n)
			anyPresent := false
			for i := range present {
				present[i] = r.Float64() < 0.7
				anyPresent = anyPresent || present[i]
			}
			if !anyPresent {
				present[0] = true
			}

			flat := newAggCore(0, n, dim)
			for i := range us {
				if present[i] {
					flat.accept(i, us[i].Clone(), ws[i])
				}
			}
			flatSum, flatW, flatCount := flat.reduce()

			ranges := ShardRanges(n, s)
			merge := newMergeCore(ranges, dim)
			total := 0
			for si, rg := range ranges {
				shard := newAggCore(rg.Lo, rg.Hi, dim)
				count := 0
				for i := rg.Lo; i < rg.Hi; i++ {
					if present[i] {
						shard.accept(i, us[i].Clone(), ws[i])
						count++
					}
				}
				if count == 0 {
					continue
				}
				sum, wsum, _ := shard.reduce()
				merge.accept(si, sum.Clone(), wsum)
				total += count
			}
			mergedSum, mergedW, _ := merge.reduce()

			if total != flatCount {
				t.Fatalf("n=%d s=%d: counts diverged %d vs %d", n, s, total, flatCount)
			}
			if mergedW != flatW {
				t.Errorf("n=%d s=%d: weight fold %v != flat %v", n, s, mergedW, flatW)
			}
			for d := range flatSum {
				if mergedSum[d] != flatSum[d] {
					t.Errorf("n=%d s=%d: sum[%d] %v != flat %v (not bit-exact)", n, s, d, mergedSum[d], flatSum[d])
					break
				}
			}
		}
	}
}

func TestSanitize(t *testing.T) {
	theta := tensor.Vec{1, 0}
	ok := tensor.Vec{1.5, 0.5}
	if err := sanitize(ok, theta, theta.Norm(), 10); err != nil {
		t.Errorf("benign update rejected: %v", err)
	}
	if err := sanitize(tensor.Vec{math.NaN(), 0}, theta, theta.Norm(), 0); err == nil {
		t.Error("NaN update accepted")
	}
	if err := sanitize(tensor.Vec{1e9, 0}, theta, theta.Norm(), 1); err == nil {
		t.Error("norm explosion accepted")
	}
}
