package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/edgeai/fedml/internal/checkpoint"
	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// check is one correctness assertion of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// episode is one complete set-up + platform run + tear-down.
type episode struct {
	// setupS runs from the start of input generation to just before the
	// platform call; generateS is the input-generation part of it.
	setupS, generateS float64
	// wallS, cpuS and allocBytes cover the platform call only.
	wallS, cpuS float64
	allocBytes  uint64

	rounds, nodes, params int
	stats                 core.CommStats
	// socketBytes is what crossed the platform-side TCP conns, both
	// directions; zero on in-memory workloads.
	socketBytes int64
	theta       tensor.Vec
	// loss0 and loss are the meta-objective at θ0 and at the final θ.
	loss0, loss float64
	rl          roundLog
	checks      []check

	// Traced episodes only.
	spans     []span
	lostSpans int
	events    int
}

func (ep *episode) check(name string, ok bool, format string, args ...any) {
	ep.checks = append(ep.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// wireBytes is the episode's traffic: socket bytes when there is a socket,
// the program's own billing otherwise.
func (ep *episode) wireBytes() int64 {
	if ep.socketBytes > 0 {
		return ep.socketBytes
	}
	return ep.stats.Bytes
}

// failedOps counts node-rounds that did not contribute: dropped, rejected and
// stale-dropped updates, plus every node of a skipped round.
func (ep *episode) failedOps() int {
	s := ep.stats
	return s.Dropped + s.Rejected + s.StaleDropped + s.SkippedRounds*ep.nodes
}

// dispatched is the number of node-rounds the platform handed out. Every
// dispatch and every delivered reply is one billed message, and on a run
// without faults each dispatch is answered, so it is half the messages.
func (ep *episode) dispatched() int { return (ep.stats.Messages + 1) / 2 }

func thetaHash(theta tensor.Vec) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range theta {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// cpuSeconds is the user+system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter brackets the platform call with the process-wide measurements.
type meter struct {
	start time.Time
	cpu   float64
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{start: time.Now(), cpu: cpuSeconds(), alloc: ms.TotalAlloc}
}

func (m meter) stop(ep *episode) {
	ep.wallS = time.Since(m.start).Seconds()
	ep.cpuS = cpuSeconds() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ep.allocBytes = ms.TotalAlloc - m.alloc
}

// onRound returns the Config.OnRound callback that fills ep.rl.
func (ep *episode) onRound(tr *tracer, rounds int) func(int, int, tensor.Vec) {
	ep.rl.ends = make([]int64, 0, rounds)
	ep.rl.nums = make([]int, 0, rounds)
	return func(round, _ int, _ tensor.Vec) {
		ep.rl.ends = append(ep.rl.ends, tr.now())
		ep.rl.nums = append(ep.rl.nums, round)
	}
}

// run executes one episode of the workload.
func (w workload) run(o options, traced bool) (*episode, error) {
	return w.episode(o, traced, true)
}

// setupOnly sets the workload up and tears it down again without a platform
// call, and returns the set-up time: set-up is milliseconds, so a run can
// afford many more set-ups than episodes and report a steadier median.
func (w workload) setupOnly(o options) (float64, error) {
	ep, err := w.episode(o, false, false)
	if err != nil {
		return 0, err
	}
	return ep.setupS, nil
}

func (w workload) episode(o options, traced, execute bool) (*episode, error) {
	if w.dataset == "sim" {
		return w.runSim(o, traced, execute)
	}
	return w.runModel(o, traced, execute)
}

// countingConn counts the bytes that cross a net.Conn in each direction.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) total() int64 { return c.read.Load() + c.written.Load() }

// tcpPair dials ln once and returns both ends of the connection. One dial is
// outstanding at a time, so accept order is dial order.
func tcpPair(ln net.Listener) (accepted, dialed *countingConn, err error) {
	type result struct {
		conn net.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		ch <- result{c, err}
	}()
	a, err := ln.Accept()
	d := <-ch
	if err != nil || d.err != nil {
		if a != nil {
			_ = a.Close()
		}
		if d.conn != nil {
			_ = d.conn.Close()
		}
		return nil, nil, errors.Join(err, d.err)
	}
	return &countingConn{Conn: a}, &countingConn{Conn: d.conn}, nil
}

// closeLinks closes every link that has been created.
func closeLinks(links []transport.Link) {
	for _, l := range links {
		if l != nil {
			_ = l.Close()
		}
	}
}

func (w workload) runModel(o options, traced, execute bool) (*episode, error) {
	ep := &episode{}
	setupStart := time.Now()
	fed, m, err := w.federation(o.seed)
	if err != nil {
		return nil, err
	}
	ep.generateS = time.Since(setupStart).Seconds()
	theta0 := m.InitParams(rng.New(o.seed))
	n := len(fed.Sources)
	rounds := w.episodeRounds(o.quick)
	ep.rounds, ep.nodes, ep.params = rounds, n, len(theta0)

	cfg := core.Config{
		Alpha: alpha, Beta: beta, T: rounds * w.t0, T0: w.t0, Seed: o.seed,
		Codec: w.codec, RoundTimeout: w.roundTimeout,
	}
	if w.async {
		cfg.Async, cfg.StalenessDecay, cfg.MaxStaleness, cfg.AsyncQuorum = true, 0.5, 20, 0.9
	}
	var sink *obs.JSONLSink
	if w.extras {
		dir, err := os.MkdirTemp(o.out, w.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.GuardRadius = 25
		cfg.CheckpointPath = filepath.Join(dir, "state.json")
		if cfg.SyncMask, err = core.ResolveSyncMask("head:2", m); err != nil {
			return nil, err
		}
		if sink, err = obs.CreateJSONL(filepath.Join(dir, "rounds.jsonl")); err != nil {
			return nil, err
		}
		cfg.Observer = sink
	}
	// Two Send and two Recv spans per node-round, plus the shutdown sweep.
	spanCap := 0
	var recorder *obs.Recorder
	if traced {
		spanCap = 4*n*(rounds+2) + 64
		recorder = obs.NewRecorder()
		cfg.Observer = obs.Multi(cfg.Observer, recorder)
	}
	tr := newTracer(spanCap)
	cfg.OnRound = ep.onRound(tr, rounds)

	plat := make([]transport.Link, n)
	node := make([]transport.Link, n)
	var conns []*countingConn
	if w.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		for i := range plat {
			a, d, err := tcpPair(ln)
			if err != nil {
				closeLinks(plat)
				closeLinks(node)
				return nil, err
			}
			conns = append(conns, a)
			plat[i], node[i] = transport.NewConnLink(a), transport.NewConnLink(d)
		}
	} else {
		for i := range plat {
			plat[i], node[i] = transport.Pair()
		}
	}
	for i := range plat {
		if w.latency > 0 {
			lat := w.latency
			if i == w.slowNode {
				lat = w.slowLatency
			}
			plat[i] = transport.NewChaos(plat[i], transport.ChaosConfig{Seed: o.seed + uint64(i), Latency: lat})
		}
		if traced {
			plat[i] = &spanLink{inner: plat[i], tr: tr, send: spanPlatformSend, recv: spanPlatformRecv, node: i}
			node[i] = &spanLink{inner: node[i], tr: tr, send: spanNodeSend, recv: spanNodeRecv, node: i}
		}
	}
	var wg sync.WaitGroup
	nodeErrs := make([]error, n)
	for i := range node {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodeErrs[i] = core.RunNode(node[i], core.NodeConfig{ID: i, Model: m, Data: fed.Sources[i], Shared: cfg})
		}(i)
	}
	ep.setupS = time.Since(setupStart).Seconds()
	if !execute {
		closeLinks(plat)
		wg.Wait()
		closeLinks(node)
		if sink != nil {
			_ = sink.Close()
		}
		return ep, nil
	}

	runPlatform := core.RunPlatform
	if w.async {
		runPlatform = core.RunAsyncPlatform
	}
	mt := startMeter()
	ep.rl.start = tr.now()
	theta, stats, runErr := runPlatform(plat, fed.Weights(), theta0, cfg)
	mt.stop(ep)

	// Closing the platform's ends unblocks any node still in Recv; the nodes'
	// ends are closed once their goroutines are gone.
	closeLinks(plat)
	wg.Wait()
	closeLinks(node)
	if sink != nil {
		if err := sink.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	for i, err := range nodeErrs {
		// On the fault-tolerant path the platform closes the links it owns,
		// which a node may see before its own KindDone; that is a clean end.
		if err != nil && !(w.roundTimeout > 0 && errors.Is(err, transport.ErrClosed)) && runErr == nil {
			runErr = fmt.Errorf("node %d: %w", i, err)
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	ep.theta, ep.stats = theta, stats
	for _, c := range conns {
		ep.socketBytes += c.total()
	}
	ep.spans, ep.lostSpans = tr.spans()

	ep.loss0 = eval.GlobalMetaObjectiveN(m, fed, alpha, theta0, 0)
	ep.loss = eval.GlobalMetaObjectiveN(m, fed, alpha, theta, 0)
	if w.tcp {
		ep.check("socket_bytes_cover_billed", ep.socketBytes >= stats.Bytes,
			"socket %d B, billed %d B", ep.socketBytes, stats.Bytes)
	}
	if w.extras {
		st, err := checkpoint.LoadRunState(cfg.CheckpointPath)
		ep.check("last_snapshot_is_final_theta", err == nil && bitEqual(st.Theta, theta), "load: %v", err)
	}
	if recorder != nil {
		ep.events = len(recorder.Events())
		if w.extras {
			ep.check("recorder_totals_equal_commstats", totalsEqual(recorder.Totals(), stats),
				"recorder %+v, stats %+v", recorder.Totals(), stats)
		}
	}
	return ep, nil
}

func totalsEqual(t obs.Totals, s core.CommStats) bool {
	return t == obs.Totals{
		Rounds: s.Rounds, Messages: s.Messages, Bytes: s.Bytes, Dropped: s.Dropped,
		Rejoined: s.Rejoined, Rejected: s.Rejected, SkippedRounds: s.SkippedRounds,
		StaleApplied: s.StaleApplied, StaleDropped: s.StaleDropped, BudgetFiltered: s.BudgetFiltered,
	}
}

// runSim drives simulated nodes with linear dynamics u = θ + η(c_i − θ)
// through real shard aggregators and a real director. The centres c_i are
// generated at set-up, so the per-node callback is one fused loop and the
// measurement holds no generator cost. The run checks itself against the
// closed form θ_R = c̄ + (1−η)^R (θ0 − c̄).
func (w workload) runSim(o options, traced, execute bool) (*episode, error) {
	ep := &episode{}
	setupStart := time.Now()
	n, dim := simNodes, simDim
	if o.quick {
		n = simQuickNodes
	}
	rounds := w.episodeRounds(o.quick)
	ep.rounds, ep.nodes, ep.params = rounds, n, dim

	r := rng.New(o.seed ^ 0xc0ffee)
	centres := make([]float64, n*dim)
	for i := range centres {
		centres[i] = r.Norm()
	}
	weights := make([]float64, n)
	var wsum float64
	for i := range weights {
		weights[i] = 0.5 + float64(i%10)/10
		wsum += weights[i]
	}
	ep.generateS = time.Since(setupStart).Seconds()
	theta0 := tensor.NewVec(dim)
	for d := range theta0 {
		theta0[d] = 1
	}

	cfg := core.Config{Alpha: alpha, Beta: beta, T: rounds, T0: 1, Seed: o.seed}
	spanCap := 0
	var recorder *obs.Recorder
	if traced {
		spanCap = 4*simShards*(rounds+2) + 64
		recorder = obs.NewRecorder()
	}
	tr := newTracer(spanCap)
	dirCfg := cfg
	dirCfg.OnRound = ep.onRound(tr, rounds)
	if recorder != nil {
		dirCfg.Observer = recorder
	}

	ranges := core.ShardRanges(n, simShards)
	dirLinks := make([]transport.Link, len(ranges))
	shardErrs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for s, rg := range ranges {
		var up transport.Link
		dirLinks[s], up = transport.Pair()
		if traced {
			dirLinks[s] = &spanLink{inner: dirLinks[s], tr: tr, send: spanPlatformSend, recv: spanPlatformRecv, node: s}
			up = &spanLink{inner: up, tr: tr, send: spanNodeSend, recv: spanNodeRecv, node: s}
		}
		sim := make([]core.SimNodeLink, rg.Hi-rg.Lo)
		links := make([]transport.Link, len(sim))
		for k := range sim {
			sim[k] = core.SimNodeLink{
				ID: rg.Lo + k,
				Update: func(id, _, _ int, theta []float64) []float64 {
					c := centres[id*dim : (id+1)*dim]
					for d := range theta {
						theta[d] += simEta * (c[d] - theta[d])
					}
					return theta
				},
			}
			links[k] = &sim[k]
		}
		wg.Add(1)
		go func(s int, rg core.ShardRange, up transport.Link, links []transport.Link) {
			defer wg.Done()
			shardErrs[s] = core.RunShardAggregator(up, links, weights[rg.Lo:rg.Hi], rg, cfg)
		}(s, rg, up, links)
	}
	ep.setupS = time.Since(setupStart).Seconds()
	if !execute {
		closeLinks(dirLinks)
		wg.Wait()
		return ep, nil
	}

	mt := startMeter()
	ep.rl.start = tr.now()
	theta, root, shardStats, runErr := core.RunDirector(dirLinks, ranges, theta0, dirCfg)
	mt.stop(ep)
	closeLinks(dirLinks)
	wg.Wait()
	if err := errors.Join(shardErrs...); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	ep.theta, ep.stats = theta, root
	ep.spans, ep.lostSpans = tr.spans()
	if recorder != nil {
		ep.events = len(recorder.Events())
	}

	cbar := tensor.NewVec(dim)
	for i := 0; i < n; i++ {
		for d := range cbar {
			cbar[d] += weights[i] * centres[i*dim+d]
		}
	}
	for d := range cbar {
		cbar[d] /= wsum
	}
	decay := math.Pow(1-simEta, float64(rounds))
	var maxErr float64
	for d := range theta {
		want := cbar[d] + decay*(theta0[d]-cbar[d])
		maxErr = math.Max(maxErr, math.Abs(theta[d]-want))
	}
	ep.check("closed_form", maxErr <= 1e-12, "max |θ−θ*| = %.3g", maxErr)
	var shardSum core.CommStats
	for _, s := range shardStats {
		shardSum.Messages += s.Messages
		shardSum.Bytes += s.Bytes
	}
	ep.check("root_counters_equal_shard_sum",
		root.Messages == shardSum.Messages && root.Bytes == shardSum.Bytes && root.Messages == 2*n*rounds,
		"root %d msgs / %d B, shards %d msgs / %d B, want %d msgs", root.Messages, root.Bytes, shardSum.Messages, shardSum.Bytes, 2*n*rounds)

	// The quadratic ½ Σ ω_i ‖θ − c_i‖² is what the linear dynamics descend.
	quad := func(theta tensor.Vec) float64 {
		var q float64
		for i := 0; i < n; i++ {
			var d2 float64
			for d, t := range theta {
				diff := t - centres[i*dim+d]
				d2 += diff * diff
			}
			q += weights[i] * d2
		}
		return q / (2 * wsum)
	}
	ep.loss0, ep.loss = quad(theta0), quad(theta)
	return ep, nil
}
