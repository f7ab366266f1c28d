# Development entry points. Everything is stdlib-only Go; no external
# dependencies are ever downloaded.

GO ?= go

.PHONY: all build vet test test-race test-short check benchmark benchmark-quick profile bench bench-json bench-check bench-paper bench-par bench-scale bench-async bench-energy bench-workloads fuzz fuzz-smoke examples clean

# Scratch directory for generated artifacts (metrics sinks, bench output,
# profiles); removed by `make clean`, never committed.
BUILD_DIR := build

all: build vet test

# Pre-commit gate: formatting, the source guards, static analysis, and the
# race-enabled short test suite (includes the zero-allocation regression
# tests). The first guard keeps the platform loops from being copied again:
# resume, the snapshot write, and the Rejected counter each have one non-test
# call site under internal/core (DESIGN.md §11). The second keeps sort.Slice
# (reflection swapper + closure comparator, O(n log n)) out of the
# per-message and per-step packages (DESIGN.md §10). The third keeps
# encoding/gob (reflection per message, no size cap) from coming back to the
# wire: the TCP link has one format, the frame of DESIGN.md §7. The fourth
# keeps the round loop single: round lifecycle events are emitted only by
# internal/core/round.go, so a baseline cannot grow a private loop again
# (DESIGN.md §15). The fifth keeps per-sample gradient accumulation from
# coming back: every model gradient accumulates through AddOuterBatch, so
# AddOuterInPlace has no non-test caller outside internal/tensor
# (DESIGN.md §13). The next three keep one model contract (DESIGN.md §6): no
# interface in internal/nn but Model and Workspace, and no type assertion or
# type-switch arm on an nn type outside it — internal/checkpoint, whose
# serializer hides the on-disk format, is the one place a switch may name
# the concrete models. The ninth keeps the traffic counters declared once, as
# obs.Totals: a struct field named SkippedRounds anywhere outside
# internal/obs is a mirror of the counter set coming back (DESIGN.md §9).
# The last keeps internal/nn's
# arithmetic unfused on every architecture: it compiles the package for
# arm64, whose compiler fuses a product into the add or subtract that
# consumes it unless float64(...) rounds the product first, and fails on any
# fused multiply-add in the listing, with no allowlist (DESIGN.md §6). The
# arm64 vet and build compile internal/tensor's !amd64 kernel file, the only
# path off amd64, so the fallback for the AVX2 assembly cannot rot unseen
# (DESIGN.md §13). arm64 is
# little-endian like amd64, so the s390x vet and build compile the
# transport's big-endian Params path for a host that takes it (DESIGN.md §7,
# "Why 64 KiB"); TestFloatLoopsMatchBulk runs that path's loops here. The
# last line repeats the doorbell and teardown tests ten times under the race
# detector: the three of the async gather, the silent-node bound of the
# barrier and probe sweeps, the pump-error stress test, and the fault-tolerant
# TCP run whose nodes must all read their farewell Done. A lost wake, a sweep
# that leaves queued replies behind a coalesced ring, a reply pre-empted by a
# failed send, or a link closed under a queued Done shows only now and then,
# as a stall their watchdogs or deadline bounds turn into a failure, as a
# lost reply, or as a node that exits on a closed link (DESIGN.md §7, §12).
check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@for pat in 'checkpoint.LoadRunState' 'saveSnapshot(' 'stats.Rejected++'; do \
		n=$$(grep -F -- "$$pat" internal/core/*.go | grep -v -e '_test.go:' -e ':func ' -e ':[[:space:]]*//' | wc -l); \
		if [ "$$n" -gt 1 ]; then \
			echo "internal/core: $$pat has $$n non-test call sites, want at most 1 (see DESIGN.md §11)"; \
			grep -n -F -- "$$pat" internal/core/*.go | grep -v '_test.go:'; exit 1; fi; \
	done
	@hits=$$(grep -n -F 'sort.Slice' internal/codec/*.go internal/tensor/*.go internal/nn/*.go internal/meta/*.go \
		| grep -v -e '_test.go:' -e ':[0-9]*:[[:space:]]*//'); if [ -n "$$hits" ]; then \
		echo "sort.Slice in a per-message/per-step package (see DESIGN.md §10):"; echo "$$hits"; exit 1; fi
	@hits=$$(grep -n -F 'encoding/gob' internal/transport/*.go internal/core/*.go \
		| grep -v -e '_test.go:' -e ':[0-9]*:[[:space:]]*//'); if [ -n "$$hits" ]; then \
		echo "encoding/gob in the wire path (see DESIGN.md §7, Wire format):"; echo "$$hits"; exit 1; fi
	@hits=$$(grep -rn -E 'Type:[[:space:]]*obs\.TypeRound(Start|End)\b' --include='*.go' internal cmd \
		| grep -v -e '_test.go:' -e '^internal/core/round.go:' -e ':[0-9]*:[[:space:]]*//'); if [ -n "$$hits" ]; then \
		echo "round lifecycle event outside internal/core/round.go (one round loop, see DESIGN.md §15):"; echo "$$hits"; exit 1; fi
	@hits=$$(grep -rn -F 'AddOuterInPlace(' --include='*.go' . \
		| grep -v -e '_test.go:' -e '^./internal/tensor/' -e ':[0-9]*:[[:space:]]*//'); if [ -n "$$hits" ]; then \
		echo "per-sample AddOuterInPlace outside internal/tensor (accumulate through AddOuterBatch, see DESIGN.md §13):"; echo "$$hits"; exit 1; fi
	@hits=$$(grep -n -E '(^|[[:space:]])type[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]+interface\b' internal/nn/*.go \
		| grep -v -e '_test.go:' -e ':[0-9]*:[[:space:]]*//' -e ':type Model interface' -e ':type Workspace interface'); if [ -n "$$hits" ]; then \
		echo "interface type in internal/nn other than Model and Workspace (one model contract, see DESIGN.md §6):"; echo "$$hits"; exit 1; fi
	@hits=$$(grep -rn -F '.(nn.' --include='*.go' . \
		| grep -v -e '^./internal/nn/' -e ':[0-9]*:[[:space:]]*//'); if [ -n "$$hits" ]; then \
		echo "type assertion on an nn type outside internal/nn (call the nn.Model method, see DESIGN.md §6):"; echo "$$hits"; exit 1; fi
	@hits=$$(grep -rn -E '\bcase[[:space:]]+\*?nn\.' --include='*.go' . \
		| grep -v -e '^./internal/nn/' -e '^./internal/checkpoint/' -e ':[0-9]*:[[:space:]]*//'); if [ -n "$$hits" ]; then \
		echo "type switch on an nn type outside internal/nn and internal/checkpoint (call the nn.Model method, see DESIGN.md §6):"; echo "$$hits"; exit 1; fi
	@hits=$$(grep -rn -E '^[[:space:]]*SkippedRounds[[:space:]]+[][*[:alpha:]]' --include='*.go' . \
		| grep -v -e '^./internal/obs/'); if [ -n "$$hits" ]; then \
		echo "counter field declared outside internal/obs (one counter set, obs.Totals; see DESIGN.md §9):"; echo "$$hits"; exit 1; fi
	@hits=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/nn 2>&1 | grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b'); if [ -n "$$hits" ]; then \
		echo "fused multiply-add in internal/nn (round the product with float64(...), see DESIGN.md §6):"; echo "$$hits"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/transport
	GOARCH=s390x $(GO) build ./...
	$(GO) test -race -short ./...
	$(GO) test -race -count=10 -run '^(TestAsyncDoorbellDeliversAll|TestAsyncLinkErrorWakesGather|TestAsyncGatherDrainsQueuedReplies|TestSilentNodesCostOneDeadline|TestAsyncSendFailureKeepsReply|TestFaultTolerantTCPNodesExitClean)$$' ./internal/transport ./internal/core

# The repo's benchmark (BENCHMARK.json): six workloads that each stress one
# layer, end-to-end and per-layer metrics, correctness checks against the
# pinned θ hashes. Results land in $(BUILD_DIR)/bench; see bench/README.md.
# benchmark-quick is the same at tiny round counts: a smoke run, not a
# measurement.
benchmark:
	$(GO) run ./bench

benchmark-quick:
	$(GO) run ./bench -quick

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# CPU + heap profiles of the five hot benchmarks: fig2a (softmax, end to
# end), MetaGradInto/mnist (one second-order meta-gradient of the MNIST
# softmax regression tcp_softmax_comm runs), MetaGradInto/mlp360 (the same
# for the Sent140 MLP the other bench/ workloads run — the unit of node
# compute), ShardedSimRound (one round of 65 536 simulated nodes under 8
# shards and a director — the platform's per-node cost) and CodecEncode/topk
# (one top-k delta encode of that MLP's 25 970 parameters — the codec's
# selection). Profiles and test binaries land in $(BUILD_DIR); the top of
# each CPU profile is printed.
# Inspect further with
# `go tool pprof $(BUILD_DIR)/profile_mlp360.test $(BUILD_DIR)/cpu_mlp360.pprof`;
# live runs expose the same data via -pprof.
profile:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run '^$$' -bench 'Fig2aNodeSimilarity' -benchmem -o $(BUILD_DIR)/profile_fig2a.test \
		-cpuprofile $(BUILD_DIR)/cpu_fig2a.pprof -memprofile $(BUILD_DIR)/mem_fig2a.pprof .
	$(GO) test -run '^$$' -bench 'MetaGradInto/mnist' -benchmem -o $(BUILD_DIR)/profile_mnist.test \
		-cpuprofile $(BUILD_DIR)/cpu_mnist.pprof -memprofile $(BUILD_DIR)/mem_mnist.pprof .
	$(GO) test -run '^$$' -bench 'MetaGradInto/mlp360' -benchmem -o $(BUILD_DIR)/profile_mlp360.test \
		-cpuprofile $(BUILD_DIR)/cpu_mlp360.pprof -memprofile $(BUILD_DIR)/mem_mlp360.pprof .
	$(GO) test -run '^$$' -bench 'ShardedSimRound' -benchmem -o $(BUILD_DIR)/profile_simround.test \
		-cpuprofile $(BUILD_DIR)/cpu_simround.pprof -memprofile $(BUILD_DIR)/mem_simround.pprof .
	$(GO) test -run '^$$' -bench 'CodecEncode/topk' -benchmem -o $(BUILD_DIR)/profile_topk.test \
		-cpuprofile $(BUILD_DIR)/cpu_topk.pprof -memprofile $(BUILD_DIR)/mem_topk.pprof .
	$(GO) tool pprof -top -nodecount 10 $(BUILD_DIR)/profile_fig2a.test $(BUILD_DIR)/cpu_fig2a.pprof
	$(GO) tool pprof -top -nodecount 10 $(BUILD_DIR)/profile_mnist.test $(BUILD_DIR)/cpu_mnist.pprof
	$(GO) tool pprof -top -nodecount 10 $(BUILD_DIR)/profile_mlp360.test $(BUILD_DIR)/cpu_mlp360.pprof
	$(GO) tool pprof -top -nodecount 10 $(BUILD_DIR)/profile_simround.test $(BUILD_DIR)/cpu_simround.pprof
	$(GO) tool pprof -top -nodecount 10 $(BUILD_DIR)/profile_topk.test $(BUILD_DIR)/cpu_topk.pprof

# One testing.B per paper table/figure plus ablations (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# The benchmarks bench-json snapshots and bench-check gates.
BENCH_GATED := Fig2aNodeSimilarity|MetaStep|FastAdaptation|GradInto|GradStepInto|CodecEncode|CodecDecode|TCPRoundTrip|ShardedSimRound|RunState|DispatchTopK

# Machine-readable performance snapshot: the key end-to-end and kernel
# benchmarks rendered to BENCH_fedml.json (name -> ns/op, B/op, allocs/op)
# by cmd/benchjson, so performance regressions show up as diffs.
bench-json:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run '^$$' \
		-bench '$(BENCH_GATED)' \
		-benchmem . | tee $(BUILD_DIR)/bench_output.txt | $(GO) run ./cmd/benchjson -out BENCH_fedml.json

# CI regression gate: re-measure the bench-json suite into $(BUILD_DIR) and
# fail when allocs/op or B/op grew more than 10% over the committed
# BENCH_fedml.json (ns/op is reported, not gated — CI wall time is noise).
# Also checks the committed experiment snapshot still carries the workload
# personalization matrices (presence + schema; values are gated by the bench
# that wrote them).
bench-check:
	@mkdir -p $(BUILD_DIR)
	$(GO) test -run '^$$' \
		-bench '$(BENCH_GATED)' \
		-benchmem . | tee $(BUILD_DIR)/bench_output.txt | $(GO) run ./cmd/benchjson -out $(BUILD_DIR)/bench_current.json
	$(GO) run ./cmd/benchjson compare BENCH_fedml.json $(BUILD_DIR)/bench_current.json
	$(GO) run ./cmd/benchjson expcheck BENCH_experiments.json ext_rec ext_fault

# Regenerate every table and figure at the paper's scale.
bench-paper:
	$(GO) run ./cmd/fedml-bench -exp all -paper

# Parallel-speedup snapshot: time the fig2a grid at GOMAXPROCS=1 up to all cores,
# verify the outputs are byte-identical (the determinism contract), and
# merge the measurement into BENCH_experiments.json under "par_bench".
bench-par:
	$(GO) run ./cmd/fedml-bench -par-bench -out BENCH_experiments.json

# Fleet-scale throughput snapshot: run ext-scale (10⁵+ simulated nodes per
# round through the sharded two-tier topology) at paper scale and merge
# rounds/sec into BENCH_experiments.json under "ext_scale".
bench-scale:
	$(GO) run ./cmd/fedml-bench -scale-bench -paper -out BENCH_experiments.json

# Async-vs-sync throughput snapshot: run ext-async (one node at 10× latency)
# and merge round throughput + objective gap into BENCH_experiments.json
# under "async_skew". Fails if async is under 2× sync or the objective gap
# exceeds 5%.
bench-async:
	$(GO) run ./cmd/fedml-bench -async-bench -out BENCH_experiments.json

# Energy snapshot: run ext-energy (full vs head-only sync priced in joules on
# the lora-like radio) and merge the per-arm bills into BENCH_experiments.json
# under "ext_energy". Fails if head-only sync lands more than 2 accuracy
# points below full sync or saves less than 3× the joules.
bench-energy:
	$(GO) run ./cmd/fedml-bench -energy-bench -out BENCH_experiments.json

# Workload snapshot: run ext-rec and ext-fault (federated recommendation and
# TinyML fault classification with the FedML/FedAvg/FedProx/RepShare
# personalization matrix) and merge the results into BENCH_experiments.json
# under "ext_rec" and "ext_fault". Fails if FedML's adapted accuracy falls
# below the FedAvg or FedProx global baseline on either workload.
bench-workloads:
	$(GO) run ./cmd/fedml-bench -workloads-bench -out BENCH_experiments.json

# Short fuzzing pass over the parsers (model checkpoint, run-state snapshot),
# the update codecs, the TCP frame and the kernel tiers (every tier the CPU
# has must agree with the Go loops bit for bit).
# Each -fuzz pattern is anchored: go test refuses to fuzz when a pattern
# matches more than one target.
fuzz:
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime 30s ./internal/checkpoint
	$(GO) test -fuzz '^FuzzLoadRunState$$' -fuzztime 30s ./internal/checkpoint
	$(GO) test -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 30s ./internal/codec
	$(GO) test -fuzz '^FuzzFrameRecv$$' -fuzztime 30s ./internal/transport
	$(GO) test -fuzz '^FuzzKernelTiersAgree$$' -fuzztime 30s ./internal/tensor

# Seconds-long fuzz smoke for CI: enough to replay the corpus and catch
# shallow regressions without holding up the pipeline. Minimization is off:
# by default a leg that finds new coverage spends its 5 s shrinking inputs
# instead of executing new ones; the 30 s fuzz target above keeps it.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/checkpoint
	$(GO) test -fuzz '^FuzzLoadRunState$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/checkpoint
	$(GO) test -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/codec
	$(GO) test -fuzz '^FuzzFrameRecv$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/transport
	$(GO) test -fuzz '^FuzzKernelTiersAgree$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/tensor

examples:
	$(GO) run ./examples/edgeiot

clean:
	$(GO) clean ./...
	rm -f fedml fedml-bench test_output.txt bench_output.txt obs_smoke.jsonl *.pprof
	rm -rf $(BUILD_DIR)
