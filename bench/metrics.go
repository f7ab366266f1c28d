package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// metricDef declares one metric; BENCHMARK.json lists the same names, units
// and directions (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the platform sees, measured in the untraced
// timed run. failed_op_share is reported through the result line's
// attempted/failed pair (and as core.failed_op_share in the traced pass)
// because it is 0 at this commit and a bound relative to 0 bounds nothing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"round_ms_p50", "ms", "lower"},
	{"cpu_ms_per_round", "ms", "lower"},
	{"wire_bytes_per_round", "B", "lower"},
	{"alloc_kb_per_round", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"final_meta_loss", "loss", "lower"},
}

// perLayer is measured in the traced pass: from spans, from the program's
// own counters, and from probes. A value of 0 on a timing or probe metric
// means the workload does not use that layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.platform_send_ms_per_round", "ms", "lower"},
		{"core.platform_gather_wait_ms_per_round", "ms", "lower"},
		{"core.platform_self_ms_per_round", "ms", "lower"},
		{"core.node_compute_ms_p50", "ms", "lower"},
		{"core.node_idle_share", "ratio", "lower"},
		{"core.straggler_gap_ms_p50", "ms", "lower"},
		{"core.round_ms_tail", "ms", "lower"},
		{"core.round_ms_tail_percentile", "%", "higher"},
		{"core.round_samples", "count", "higher"},
		{"core.shard_partial_wait_ms_per_round", "ms", "lower"},
		{"core.node_rounds_per_s", "1/s", "higher"},
		{"core.messages", "count", "lower"},
		{"core.billed_bytes", "B", "lower"},
		{"core.dropped", "count", "lower"},
		{"core.rejoined", "count", "lower"},
		{"core.rejected", "count", "lower"},
		{"core.skipped_rounds", "count", "lower"},
		{"core.stale_applied", "count", "lower"},
		{"core.stale_dropped", "count", "lower"},
		{"core.budget_filtered", "count", "lower"},
		{"core.failed_op_share", "ratio", "lower"},
		{"core.time_model_rel_err", "ratio", "lower"},
		{"transport.mem_roundtrip_us", "us", "lower"},
		{"transport.tcp_roundtrip_us", "us", "lower"},
		{"transport.tcp_allocs_per_msg", "count", "lower"},
		{"transport.tcp_socket_bytes_per_msg", "B", "lower"},
		{"transport.wire_overhead_ratio", "ratio", "lower"},
		{"transport.async_pump_us", "us", "lower"},
	}
	for _, kind := range []struct{ prefix, unit string }{
		{"codec.encode_ns_per_param.", "ns"}, {"codec.decode_ns_per_param.", "ns"}, {"codec.bytes_per_param.", "B"},
	} {
		for _, mode := range codecModes {
			defs = append(defs, metricDef{kind.prefix + mode, kind.unit, "lower"})
		}
	}
	return append(defs,
		metricDef{"nn.grad_us", "us", "lower"},
		metricDef{"nn.hvp_us", "us", "lower"},
		metricDef{"meta.metagrad_us", "us", "lower"},
		metricDef{"meta.adapt_us", "us", "lower"},
		metricDef{"checkpoint.save_runstate_ms", "ms", "lower"},
		metricDef{"checkpoint.load_runstate_ms", "ms", "lower"},
		metricDef{"checkpoint.bytes", "B", "lower"},
		metricDef{"obs.jsonl_us_per_event", "us", "lower"},
		metricDef{"obs.recorder_ns_per_event", "ns", "lower"},
		metricDef{"obs.events_per_round", "count", "lower"},
		metricDef{"data.generate_s", "s", "lower"},
		metricDef{"eval.meta_objective_ms", "ms", "lower"},
		metricDef{"eval.adapted_acc", "ratio", "higher"},
		metricDef{"par.foreach_ns_per_item.w1", "ns", "lower"},
		metricDef{"par.foreach_ns_per_item.wmax", "ns", "lower"},
		metricDef{"trace.overhead_share", "ratio", "lower"},
		metricDef{"trace.spans", "count", "lower"},
	)
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints: the contract
// between the benchmark and whatever drives it.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envStamp says where and on what a record was measured.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// record is the full account of one pass (timed or traced) of one workload.
type record struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Control  bool     `json:"control,omitempty"`
	Traced   bool     `json:"traced"`
	Env      envStamp `json:"env"`
	Seed     uint64   `json:"seed"`
	Scale    string   `json:"scale"`
	// Rounds is the length of one episode; the pass ran Episodes of them.
	Rounds   int `json:"rounds"`
	Episodes int `json:"episodes"`
	Nodes    int `json:"nodes"`
	Params   int `json:"params"`
	// WallS is the wall time of the whole pass, set-ups and probes included.
	WallS float64 `json:"wall_s"`
	// WireSource says what wire_bytes_per_round counted: "socket" bytes on
	// the TCP conns, or the bytes the program "billed".
	WireSource string `json:"wire_source"`
	// RoundSamples is the number of OnRound gaps behind round_ms_p50.
	RoundSamples int     `json:"round_samples"`
	ThetaSHA256  string  `json:"theta_sha256,omitempty"`
	Loss0        float64 `json:"theta0_loss"`
	resultLine
	Checks []check `json:"checks"`
	// Samples holds the per-episode values behind each end-to-end median, so
	// `compare` can tell a regression from run-to-run spread.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func stampEnv() envStamp {
	e := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	// A benchmark checkout need not be a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// peakRSSMiB is the process's VmHWM.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// fill stores values under the declared metrics, failing on a missing or
// non-finite one so a metric can never silently vanish from a record.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: value %v (present: %v)", d.Name, v, ok)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d values for %d declared metrics", len(values), len(defs))
	}
	return out, nil
}
