package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/edgeai/fedml/internal/checkpoint"
	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// Probes are tight loops over one layer's public functions at the shapes of
// the workload being run (its parameter count, codec and K). They run after
// the traced pass, one at a time, so nothing contends with them.

// probeInputs is what the probes borrow from the workload.
type probeInputs struct {
	fed   *data.Federation // nil on the model-free sim workload
	model nn.Model
	theta tensor.Vec
	dim   int
}

// inputs regenerates the workload's model and federation for the probes.
func (w workload) inputs(seed uint64) (*probeInputs, error) {
	if w.dataset == "sim" {
		return &probeInputs{dim: simDim}, nil
	}
	fed, m, err := w.federation(seed)
	if err != nil {
		return nil, err
	}
	return &probeInputs{fed: fed, model: m, dim: m.NumParams(), theta: m.InitParams(rng.New(seed))}, nil
}

// vector returns a parameter-shaped vector: the model's θ0 when there is a
// model, seeded normals otherwise.
func (in *probeInputs) vector(seed uint64) []float64 {
	if in.theta != nil {
		return in.theta.Clone()
	}
	r := rng.New(seed)
	v := make([]float64, in.dim)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

// headRanges is the mask of a head-only sync: the model's output layer, or
// the last quarter of the vector when there is no model.
func (in *probeInputs) headRanges() []codec.Range {
	if in.model != nil {
		if p, err := core.ResolveSyncMask("head:1", in.model); err == nil {
			return p.Ranges
		}
	}
	return []codec.Range{{Lo: in.dim - in.dim/4, Hi: in.dim}}
}

// timeLoop calls fn repeatedly for about budget (at least three times) and
// returns the median duration of one call in nanoseconds. fn is timed in
// batches sized so that one batch lasts at least 200 µs, which keeps the
// clock reads out of the figure.
func timeLoop(budget time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	once := time.Since(start)
	batch := 1
	if once < 200*time.Microsecond {
		batch = int(200*time.Microsecond/(once+1)) + 1
	}
	var samples []float64
	for len(samples) < 3 || time.Since(start) < budget {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t))/float64(batch))
	}
	return median(samples)
}

// steadyMsg is the parameter message the workload puts on a link in steady
// state: raw Params, or the codec payload of its second and later rounds
// (masked to the head when the workload syncs only the head).
func (w workload) steadyMsg(in *probeInputs, seed uint64) (transport.Msg, error) {
	v := in.vector(seed)
	m := transport.Msg{Kind: transport.KindParams, Round: 1, LocalSteps: w.t0}
	if w.codec == "" && !w.extras {
		m.Params = v
		return m, nil
	}
	spec := w.codec
	if spec == "" {
		spec = codec.Raw
	}
	inner, err := codec.New(spec)
	if err != nil {
		return m, err
	}
	enc := codec.NewMasked(inner)
	var ranges []codec.Range
	if w.extras {
		ranges = in.headRanges()
	}
	// Two encodes: the first under any mask is a full sync; the second has
	// the size every later message has.
	for i := 0; i < 2; i++ {
		for j := range v {
			v[j] += 1e-3
		}
		if m.Payload, err = enc.EncodeMasked(v, ranges); err != nil {
			return m, err
		}
	}
	m.Codec = spec
	return m, nil
}

func billedBytes(m transport.Msg) int {
	if m.Codec != "" {
		return len(m.Payload)
	}
	return 8 * len(m.Params)
}

// echo answers every message on l with the same message until l fails.
func echo(l transport.Link, done chan<- struct{}) {
	defer close(done)
	for {
		m, err := l.Recv()
		if err != nil {
			return
		}
		if l.Send(m) != nil {
			return
		}
	}
}

// probeMemRoundTrip times one Send + Recv against an echoing peer over the
// in-memory pipe, in microseconds.
func probeMemRoundTrip(budget time.Duration, msg transport.Msg) float64 {
	a, b := transport.Pair()
	done := make(chan struct{})
	go echo(b, done)
	ns := timeLoop(budget, func() {
		_ = a.Send(msg)
		_, _ = a.Recv()
	})
	_ = a.Close()
	<-done
	return ns / 1e3
}

// probeAsyncPump is probeMemRoundTrip through transport.NewAsync's pump
// goroutines and deadline timers — the fault-tolerant path's per-message tax.
func probeAsyncPump(budget time.Duration, msg transport.Msg) float64 {
	a, b := transport.Pair()
	done := make(chan struct{})
	go echo(b, done)
	as := transport.NewAsync(a, 1)
	ns := timeLoop(budget, func() {
		_ = as.TrySend(msg, time.Second)
		_, _ = as.TryRecv(time.Second)
	})
	_ = as.Close()
	<-done
	return ns / 1e3
}

type tcpProbe struct {
	roundTripUS, allocsPerMsg, socketBytesPerMsg float64
}

// probeTCP times the same round trip over loopback TCP (gob framing) and
// counts what it allocates and what it puts on the socket per message.
func probeTCP(budget time.Duration, msg transport.Msg) (tcpProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return tcpProbe{}, err
	}
	defer ln.Close()
	ac, dc, err := tcpPair(ln)
	if err != nil {
		return tcpProbe{}, err
	}
	a, b := transport.NewConnLink(ac), transport.NewConnLink(dc)
	done := make(chan struct{})
	go echo(b, done)
	var trips atomic.Int64
	trip := func() error {
		if err := a.Send(msg); err != nil {
			return err
		}
		_, err := a.Recv()
		trips.Add(1)
		return err
	}
	// The first trip carries gob's type descriptors; keep it out.
	if err := trip(); err != nil {
		return tcpProbe{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	bytes0, trips0 := ac.total(), trips.Load()
	ns := timeLoop(budget, func() { _ = trip() })
	runtime.ReadMemStats(&ms1)
	msgs := float64(2 * (trips.Load() - trips0))
	p := tcpProbe{
		roundTripUS:       ns / 1e3,
		allocsPerMsg:      float64(ms1.Mallocs-ms0.Mallocs) / msgs,
		socketBytesPerMsg: float64(ac.total()-bytes0) / msgs,
	}
	_ = a.Close()
	<-done
	_ = b.Close()
	return p, nil
}

type codecProbe struct {
	encodeNSPerParam, decodeNSPerParam, bytesPerParam float64
}

// codecModes are the per-layer codec rows; masked-head is the raw codec
// under the head-only mask.
var codecModes = []string{"raw", "f16", "q8", "topk", "masked-head"}

// probeCodec times steady-state Encode and Decode of a dim-sized vector that
// drifts a little between messages, as training does.
func probeCodec(budget time.Duration, mode string, in *probeInputs, seed uint64) (codecProbe, error) {
	spec, ranges := mode, []codec.Range(nil)
	if mode == "masked-head" {
		spec, ranges = codec.Raw, in.headRanges()
	}
	encInner, err := codec.New(spec)
	if err != nil {
		return codecProbe{}, err
	}
	decInner, _ := codec.New(spec)
	enc, dec := codec.NewMasked(encInner), codec.NewMasked(decInner)
	v := in.vector(seed)
	// A masked exchange needs the full-vector reference a plain first
	// message leaves behind.
	first, err := enc.Encode(v)
	if err != nil {
		return codecProbe{}, err
	}
	if _, err := dec.Decode(first); err != nil {
		return codecProbe{}, err
	}
	var encNS, decNS []float64
	var payload []byte
	for start := time.Now(); len(encNS) < 3 || time.Since(start) < budget; {
		for j := range v {
			v[j] += 1e-3 * float64(j%7-3)
		}
		t0 := time.Now()
		payload, err = enc.EncodeMasked(v, ranges)
		t1 := time.Now()
		if err != nil {
			return codecProbe{}, err
		}
		if _, _, err = dec.DecodeMasked(payload, nil); err != nil {
			return codecProbe{}, err
		}
		t2 := time.Now()
		encNS = append(encNS, float64(t1.Sub(t0)))
		decNS = append(decNS, float64(t2.Sub(t1)))
	}
	dim := float64(in.dim)
	return codecProbe{median(encNS) / dim, median(decNS) / dim, float64(len(payload)) / dim}, nil
}

// runProbes fills the probe metrics of one workload. budget is the time for
// all of them together; last is a finished episode of the workload.
func (w workload) runProbes(o options, budget time.Duration, last *episode, out map[string]float64) error {
	const loops = 32 // upper bound on the timeLoop calls below
	each := budget / loops
	in, err := w.inputs(o.seed)
	if err != nil {
		return err
	}
	msg, err := w.steadyMsg(in, o.seed)
	if err != nil {
		return err
	}

	// transport
	out["transport.mem_roundtrip_us"] = probeMemRoundTrip(each, msg)
	out["transport.async_pump_us"] = probeAsyncPump(each, msg)
	tp, err := probeTCP(each, msg)
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	out["transport.tcp_roundtrip_us"] = tp.roundTripUS
	out["transport.tcp_allocs_per_msg"] = tp.allocsPerMsg
	out["transport.tcp_socket_bytes_per_msg"] = tp.socketBytesPerMsg
	out["transport.wire_overhead_ratio"] = tp.socketBytesPerMsg / float64(billedBytes(msg))

	// codec
	for _, mode := range codecModes {
		cp, err := probeCodec(each, mode, in, o.seed)
		if err != nil {
			return fmt.Errorf("codec probe %s: %w", mode, err)
		}
		out["codec.encode_ns_per_param."+mode] = cp.encodeNSPerParam
		out["codec.decode_ns_per_param."+mode] = cp.decodeNSPerParam
		out["codec.bytes_per_param."+mode] = cp.bytesPerParam
	}

	// nn, meta, eval — only where there is a model; 0 marks "layer not used".
	var stepUS float64
	for _, k := range []string{"nn.grad_us", "nn.hvp_us", "meta.metagrad_us", "meta.adapt_us", "eval.meta_objective_ms", "eval.adapted_acc"} {
		out[k] = 0
	}
	if in.model != nil {
		nd := in.fed.Sources[0]
		nws := nn.NewWorkspace(in.model)
		mws := meta.NewWorkspace(in.model)
		g, v := tensor.NewVec(in.dim), in.theta.Clone()
		out["nn.grad_us"] = timeLoop(each, func() { nn.GradInto(in.model, nws, in.theta, nd.Train, g) }) / 1e3
		out["nn.hvp_us"] = timeLoop(each, func() { nn.HVPInto(in.model, nws, in.theta, nd.Train, v, g) }) / 1e3
		stepUS = timeLoop(each, func() {
			mws.GradInto(in.theta, nd.Train, nd.Test, alpha, meta.SecondOrder, g)
		}) / 1e3
		out["meta.metagrad_us"] = stepUS
		target := in.fed.Targets[0]
		out["meta.adapt_us"] = timeLoop(each, func() { mws.AdaptInto(in.theta, target.Train, alpha, 1, g) }) / 1e3
		out["eval.meta_objective_ms"] = timeLoop(each, func() {
			eval.GlobalMetaObjectiveN(in.model, in.fed, alpha, in.theta, 0)
		}) / 1e6
		acc := eval.FinalAccuraciesN(in.model, last.theta, in.fed.Targets, alpha, 5, 0)
		out["eval.adapted_acc"] = tensor.Vec(acc).Sum() / float64(len(acc))
	}

	// checkpoint and obs, in a scratch directory under the output directory.
	dir, err := os.MkdirTemp(o.out, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := &checkpoint.RunState{Version: checkpoint.RunStateVersion, Round: 1, Iter: 1, T0: 1, Theta: in.vector(o.seed)}
	path := filepath.Join(dir, "state.json")
	var ckErr error
	out["checkpoint.save_runstate_ms"] = timeLoop(each, func() {
		if err := checkpoint.SaveRunState(path, st); err != nil {
			ckErr = err
		}
	}) / 1e6
	out["checkpoint.load_runstate_ms"] = timeLoop(each, func() {
		if _, err := checkpoint.LoadRunState(path); err != nil {
			ckErr = err
		}
	}) / 1e6
	if ckErr != nil {
		return fmt.Errorf("checkpoint probe: %w", ckErr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	out["checkpoint.bytes"] = float64(fi.Size())

	// One synthetic round as the platform emits it: start, a broadcast and an
	// update per node, end.
	var round []obs.Event
	round = append(round, obs.Event{Type: obs.TypeRoundStart, Round: 1, T0: w.t0, Alive: 16})
	for i := 0; i < 16; i++ {
		round = append(round, obs.Event{Type: obs.TypeBroadcast, Round: 1, Node: i, Bytes: int64(billedBytes(msg))})
	}
	for i := 0; i < 16; i++ {
		round = append(round, obs.Event{Type: obs.TypeUpdate, Round: 1, Node: i, Bytes: int64(billedBytes(msg))})
	}
	round = append(round, obs.Event{Type: obs.TypeRoundEnd, Round: 1, Iter: w.t0, T0: w.t0, Alive: 16, Dur: time.Millisecond})
	sink, err := obs.CreateJSONL(filepath.Join(dir, "rounds.jsonl"))
	if err != nil {
		return err
	}
	r := 0
	feed := func(o obs.RoundObserver) {
		r++
		for _, ev := range round {
			ev.Round = r
			o.Observe(ev)
		}
	}
	out["obs.jsonl_us_per_event"] = timeLoop(each, func() { feed(sink) }) / 1e3 / float64(len(round))
	if err := sink.Close(); err != nil {
		return fmt.Errorf("obs probe: %w", err)
	}
	// A Recorder keeps every event, so each timed batch gets a fresh one.
	rec := obs.NewRecorder()
	out["obs.recorder_ns_per_event"] = timeLoop(each, func() {
		if r%256 == 0 {
			rec = obs.NewRecorder()
		}
		feed(rec)
	}) / float64(len(round))

	// par: the cost of handing one trivial item to the pool.
	const items = 4096
	var sinkSum atomic.Int64
	for _, p := range []struct {
		key     string
		workers int
	}{{"par.foreach_ns_per_item.w1", 1}, {"par.foreach_ns_per_item.wmax", runtime.GOMAXPROCS(0)}} {
		out[p.key] = timeLoop(each, func() {
			par.ForEach(p.workers, items, func(i int) { sinkSum.Add(int64(i)) })
		}) / items
	}

	// The time model, fed what the probes measured, against what the run
	// took. Latency is half a round trip of this workload's message over the
	// transport it uses; bandwidth is left infinite because the round trip
	// already carries the payload.
	rt := out["transport.mem_roundtrip_us"]
	if w.tcp {
		rt = out["transport.tcp_roundtrip_us"]
	}
	tm := core.TimeModel{
		OneWayLatency: time.Duration(rt/2*1e3) + w.latency,
		LocalStepTime: time.Duration(stepUS * 1e3),
	}
	out["core.time_model_rel_err"] = 0
	if est, err := tm.Estimate(last.stats, last.rounds*w.t0, 8*in.dim); err == nil && last.wallS > 0 {
		out["core.time_model_rel_err"] = (est.Seconds() - last.wallS) / last.wallS
	}
	return nil
}
