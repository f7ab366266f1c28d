package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// reference.json holds, per seed and workload, the SHA-256 and the
// meta-loss of the final θ of one full-scale episode on amd64. A run passes
// when it reproduces the θ bit for bit, or — after a change of arithmetic —
// reaches a θ whose meta-loss is within referenceLossSlack of the reference.
// Refresh an entry from theta_sha256 and the final_meta_loss sample in the
// records of a run at that seed.
//
//go:embed reference.json
var referenceJSON []byte

const referenceLossSlack = 0.02

type reference struct {
	SHA256 string  `json:"theta_sha256"`
	Loss   float64 `json:"final_meta_loss"`
}

func referenceFor(seed uint64, workload string) (reference, bool) {
	var ref map[string]map[string]reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return reference{}, false
	}
	r, ok := ref[fmt.Sprint(seed)][workload]
	return r, ok
}

// The timed pass takes setup_s from one set-up per episode, topped up with
// set-ups that are torn down unrun: at least minSetupSamples in all, then as
// many more as fit in setupTopUp, up to maxSetupSamples.
const (
	minSetupSamples = 25
	maxSetupSamples = 200
	setupTopUp      = 500 * time.Millisecond
)

// deterministic reports whether the workload's final θ is a function of the
// seed alone. The async workload's θ depends on arrival order.
func (w workload) deterministic() bool { return !w.async }

// measure runs one pass of w: episodes until the time is up, then — on the
// traced pass — the probes.
func measure(w workload, o options) (*record, error) {
	started := time.Now()
	traced := o.trace == 1
	budget := time.Duration(o.seconds) * time.Second
	if traced {
		// The traced pass alternates untraced and traced episodes (their
		// ratio is the tracing overhead) and keeps the rest for the probes.
		budget = budget * 6 / 10
	}
	done := func(episodes int) bool {
		if o.quick {
			// Two episodes in all: enough to compare two final θ.
			return traced || episodes >= 2
		}
		return time.Since(started) >= budget
	}

	var plain, spanned []*episode
	for {
		// On the traced pass untraced and traced episodes alternate, and so
		// does which of the two goes first, so that warm-up and drift fall
		// on both sides of the overhead ratio.
		for _, spans := range [2]bool{len(plain)%2 == 1, len(plain)%2 == 0} {
			if spans && !traced {
				continue
			}
			ep, err := w.run(o, spans)
			if err != nil {
				return nil, err
			}
			if spans {
				spanned = append(spanned, ep)
			} else {
				plain = append(plain, ep)
			}
		}
		if done(len(plain)) {
			break
		}
	}

	rec := &record{
		Workload: w.name, Why: w.why, Traced: traced, Env: stampEnv(),
		Seed: o.seed, Scale: o.scale(),
		Rounds: plain[0].rounds, Episodes: len(plain), Nodes: plain[0].nodes, Params: plain[0].params,
		WireSource: "billed", Loss0: plain[0].loss0,
	}
	if plain[0].socketBytes > 0 {
		rec.WireSource = "socket"
	}
	rec.Correct = true
	verdict := func(c check) {
		rec.Checks = append(rec.Checks, c)
		rec.Correct = rec.Correct && c.OK
	}

	all := append(append([]*episode(nil), plain...), spanned...)
	for i, ep := range all {
		rec.Attempted += ep.dispatched()
		rec.Failed += ep.failedOps()
		ep.check("loss_improved", !math.IsNaN(ep.loss) && !math.IsInf(ep.loss, 0) && ep.loss < ep.loss0,
			"θ0 %.6g → final %.6g", ep.loss0, ep.loss)
		ep.check("span_buffer_held_every_span", ep.lostSpans == 0, "%d spans lost", ep.lostSpans)
		// Every episode runs the same checks; record the first episode's and
		// any later failure.
		for _, c := range ep.checks {
			if i == 0 || !c.OK {
				verdict(c)
			}
		}
	}
	if w.deterministic() {
		rec.ThetaSHA256 = thetaHash(all[0].theta)
		same := true
		for _, ep := range all[1:] {
			same = same && thetaHash(ep.theta) == rec.ThetaSHA256
		}
		// Traced episodes are in `all`, so this also proves the span links
		// are transparent.
		verdict(check{Name: "theta_same_every_episode", OK: same,
			Detail: fmt.Sprintf("%d episodes (%d traced)", len(all), len(spanned))})
		if ref, ok := referenceFor(o.seed, w.name); ok && !o.quick && !o.control && runtime.GOARCH == "amd64" {
			loss := all[0].loss
			c := check{Name: "theta_matches_reference", OK: true, Detail: "bit-identical"}
			if rec.ThetaSHA256 != ref.SHA256 {
				c.OK = math.Abs(loss-ref.Loss) <= referenceLossSlack*ref.Loss
				c.Detail = fmt.Sprintf("arithmetic changed: θ %s, meta-loss %.6g against reference %.6g", rec.ThetaSHA256, loss, ref.Loss)
			}
			verdict(c)
		}
	}
	if o.quick && w.tcp && w.deterministic() && !o.control {
		// At smoke scale, also prove the TCP path computes what the
		// in-memory path computes.
		inMemory := w
		inMemory.tcp = false
		ep, err := inMemory.run(o, false)
		if err != nil {
			return nil, err
		}
		verdict(check{Name: "tcp_theta_equals_in_memory_theta", OK: thetaHash(ep.theta) == rec.ThetaSHA256})
	}

	var values map[string]float64
	var defs []metricDef
	if traced {
		defs = perLayer
		values = layerValues(w, plain, spanned)
		if err := writeTrace(filepath.Join(o.out, "trace."+w.name+".json"), spanned[0].spans, &spanned[0].rl); err != nil {
			return nil, err
		}
		left := time.Duration(o.seconds)*time.Second - time.Since(started)
		if o.quick {
			left = 300 * time.Millisecond
		} else if left < time.Second {
			left = time.Second
		}
		if err := w.runProbes(o, left, plain[len(plain)-1], values); err != nil {
			return nil, err
		}
	} else {
		defs = endToEnd
		values, rec.Samples = endToEndValues(plain)
		setups := rec.Samples["setup_s"]
		for extra := time.Now(); !o.quick && (len(setups) < minSetupSamples ||
			(len(setups) < maxSetupSamples && time.Since(extra) < setupTopUp)); {
			s, err := w.setupOnly(o)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		rec.Samples["setup_s"], values["setup_s"] = setups, median(setups)
	}
	var err error
	if rec.Metrics, err = fill(defs, values); err != nil {
		return nil, err
	}
	for _, ep := range plain {
		rec.RoundSamples += len(ep.rl.ends)
	}
	rec.WallS = time.Since(started).Seconds()
	return rec, nil
}

// endToEndValues reduces the episodes of a timed run to the end-to-end
// metrics: each is the median over episodes (round_ms_p50 the median over
// every round of every episode), peak_rss_mb the process's high-water mark.
func endToEndValues(eps []*episode) (map[string]float64, map[string][]float64) {
	samples := map[string][]float64{}
	var gaps []float64
	for _, ep := range eps {
		r := float64(ep.stats.Rounds)
		samples["setup_s"] = append(samples["setup_s"], ep.setupS)
		samples["rounds_per_s"] = append(samples["rounds_per_s"], r/ep.wallS)
		g := ep.rl.gapsMS()
		samples["round_ms_p50"] = append(samples["round_ms_p50"], median(g))
		samples["cpu_ms_per_round"] = append(samples["cpu_ms_per_round"], ep.cpuS*1e3/r)
		samples["wire_bytes_per_round"] = append(samples["wire_bytes_per_round"], float64(ep.wireBytes())/r)
		samples["alloc_kb_per_round"] = append(samples["alloc_kb_per_round"], float64(ep.allocBytes)/1024/r)
		samples["final_meta_loss"] = append(samples["final_meta_loss"], ep.loss)
		gaps = append(gaps, g...)
	}
	values := map[string]float64{"peak_rss_mb": peakRSSMiB()}
	for name, s := range samples {
		values[name] = median(s)
	}
	values["round_ms_p50"] = median(gaps)
	return values, samples
}

// layerValues computes the span and counter metrics of a traced pass; the
// probes add theirs afterwards.
func layerValues(w workload, plain, spanned []*episode) map[string]float64 {
	v := map[string]float64{}
	var send, wait, self, idle, nodeRounds, events, tracedRate, plainRate, spans []float64
	var compute, gap, gaps, generate []float64
	for i, ep := range spanned {
		s := summarize(ep.spans, &ep.rl)
		send, wait, self = append(send, s.sendMS), append(wait, s.waitMS), append(self, s.selfMS)
		idle = append(idle, s.nodeIdleShare)
		compute = append(compute, s.nodeComputeMS...)
		gap = append(gap, s.stragglerGapMS...)
		r := float64(ep.stats.Rounds)
		nodeRounds = append(nodeRounds, r*float64(ep.nodes)/ep.wallS)
		events = append(events, float64(ep.events)/r)
		spans = append(spans, float64(len(ep.spans)))
		tracedRate = append(tracedRate, r/ep.wallS)
		plainRate = append(plainRate, float64(plain[i].stats.Rounds)/plain[i].wallS)
	}
	// The round-time tail is a diagnostic for round_ms_p50, so it comes from
	// the untraced episodes of this pass.
	for i, ep := range plain {
		gaps = append(gaps, ep.rl.gapsMS()...)
		generate = append(generate, ep.generateS, spanned[i].generateS)
	}
	v["core.platform_send_ms_per_round"] = median(send)
	v["core.platform_gather_wait_ms_per_round"] = median(wait)
	v["core.platform_self_ms_per_round"] = median(self)
	v["core.node_compute_ms_p50"] = median(compute)
	v["core.node_idle_share"] = median(idle)
	v["core.straggler_gap_ms_p50"] = median(gap)
	tailMS, pct, n := tail(gaps)
	v["core.round_ms_tail"] = tailMS
	v["core.round_ms_tail_percentile"] = pct
	v["core.round_samples"] = float64(n)
	// Only the sharded topology has partials to wait for. The director's
	// links rendezvous, so a dispatch to a shard that is not back in Recv yet
	// is time spent waiting for that shard, just like a Recv: the wait is
	// everything the director spends blocked on its shard links.
	v["core.shard_partial_wait_ms_per_round"] = 0
	if w.dataset == "sim" {
		v["core.shard_partial_wait_ms_per_round"] = median(send) + median(wait)
	}
	v["core.node_rounds_per_s"] = median(nodeRounds)
	v["obs.events_per_round"] = median(events)
	v["data.generate_s"] = median(generate)
	v["trace.overhead_share"] = 1 - median(tracedRate)/median(plainRate)
	v["trace.spans"] = median(spans)

	// Counters are those of one traced episode; on a deterministic workload
	// every episode has the same.
	ep := spanned[0]
	st := ep.stats
	v["core.messages"] = float64(st.Messages)
	v["core.billed_bytes"] = float64(st.Bytes)
	v["core.dropped"] = float64(st.Dropped)
	v["core.rejoined"] = float64(st.Rejoined)
	v["core.rejected"] = float64(st.Rejected)
	v["core.skipped_rounds"] = float64(st.SkippedRounds)
	v["core.stale_applied"] = float64(st.StaleApplied)
	v["core.stale_dropped"] = float64(st.StaleDropped)
	v["core.budget_filtered"] = float64(st.BudgetFiltered)
	v["core.failed_op_share"] = float64(ep.failedOps()) / float64(ep.dispatched())
	return v
}
