// Command fedml trains a federated meta-model and fast-adapts it at target
// edge nodes. It has four modes:
//
//	fedml train     — single-process simulation over in-memory links
//	fedml platform  — the aggregation platform side of a real TCP deployment
//	fedml node      — one source edge node joining a TCP platform
//	fedml adapt     — a target device: load a checkpoint (train -save) and
//	                  fast-adapt it on one target node's K local samples
//
// The TCP modes run the same Algorithm 1/2 code as train, but across
// processes (or machines): start the platform first, then one node process
// per source node. All sides derive the same federation from -dataset/-seed,
// so no data is shipped — only model parameters cross the network, as in the
// paper's architecture.
//
// Examples:
//
//	fedml train -dataset synthetic -t 500 -t0 10
//	fedml train -dataset mnist -robust -lambda 0.01
//	fedml train -t 60 -round-timeout 500ms -guard 25 -chaos "1:kill@2,1:revive@5,2:corrupt@4"
//
//	fedml platform -addr :7001 -dataset synthetic -nodes 8
//	for i in $(seq 0 7); do fedml node -addr localhost:7001 -dataset synthetic -id $i & done
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/edgeai/fedml/internal/checkpoint"
	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedml:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fedml <train|platform|node|adapt> [flags]")
	}
	switch args[0] {
	case "train":
		return runTrain(args[1:])
	case "platform":
		return runPlatform(args[1:])
	case "node":
		return runNode(args[1:])
	case "adapt":
		return runAdapt(args[1:])
	default:
		return fmt.Errorf("unknown mode %q (want train, platform, node or adapt)", args[0])
	}
}

// commonFlags holds the flags shared by all modes.
type commonFlags struct {
	dataset string
	nodes   int
	k       int
	seed    uint64
	alpha   float64
	beta    float64
	t       int
	t0      int
	robust  bool
	lambda  float64
	csvPath string
	csvDim  int
	codec   string

	syncMask      string
	energyProfile string
	energyJPerIt  float64
	energyBudget  float64
}

func addCommonFlags(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.dataset, "dataset", "synthetic", "workload: synthetic, mnist, sent140, rec, fault or csv")
	fs.IntVar(&c.nodes, "nodes", 20, "number of edge nodes in the federation")
	fs.IntVar(&c.k, "k", 5, "few-shot training-set size K per node")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed (all sides must agree)")
	fs.Float64Var(&c.alpha, "alpha", 0.05, "inner (adaptation) learning rate α")
	fs.Float64Var(&c.beta, "beta", 0.01, "meta learning rate β")
	fs.IntVar(&c.t, "t", 200, "total local iterations T")
	fs.IntVar(&c.t0, "t0", 5, "local iterations per aggregation round T0")
	fs.BoolVar(&c.robust, "robust", false, "use Robust FedML (Algorithm 2)")
	fs.Float64Var(&c.lambda, "lambda", 0.01, "DRO penalty λ (with -robust)")
	fs.StringVar(&c.csvPath, "csv", "", "with -dataset csv: path to a CSV of feature columns + integer label")
	fs.IntVar(&c.csvDim, "csv-dim", 0, "with -dataset csv: number of feature columns")
	fs.StringVar(&c.codec, "codec", "", "update compression codec: raw, f16, q8, or topk[:frac] (empty = raw; nodes mirror the platform's choice)")
	fs.StringVar(&c.syncMask, "sync-mask", "", `partial-parameter sync policy: "head:<warmup>" freezes the feature layers after <warmup> full-sync rounds and syncs only the output head (nodes mirror the mask from the wire format)`)
	fs.StringVar(&c.energyProfile, "energy-profile", "", "per-node energy pricing profile: lora-like, wifi, or datacenter (enables joule accounting)")
	fs.Float64Var(&c.energyJPerIt, "energy-compute", 1e-4, "with -energy-profile: modeled compute joules per local iteration")
	fs.Float64Var(&c.energyBudget, "energy-budget", 0, "per-node per-round energy budget in joules; nodes whose modeled round cost exceeds it sit the round out (requires -energy-profile; 0 = unlimited)")
	return c
}

// applyPolicies resolves the model-dependent sync-mask and energy flags into
// cfg. It runs on the aggregation side (train, platform): nodes mirror the
// mask from the self-describing payloads and need no configuration.
func (c *commonFlags) applyPolicies(cfg *core.Config, m nn.Model) error {
	mask, err := core.ResolveSyncMask(c.syncMask, m)
	if err != nil {
		return err
	}
	cfg.SyncMask = mask
	if c.energyProfile != "" {
		em, ok := core.EnergyProfiles(c.energyJPerIt)[c.energyProfile]
		if !ok {
			return fmt.Errorf("unknown -energy-profile %q (want lora-like, wifi or datacenter)", c.energyProfile)
		}
		cfg.Energy = &em
	}
	if c.energyBudget > 0 {
		if cfg.Energy == nil {
			return fmt.Errorf("-energy-budget requires -energy-profile")
		}
		cfg.EnergyBudget = c.energyBudget
	}
	return nil
}

// buildWorkload constructs the federation and model for the CLI flags.
func (c *commonFlags) buildWorkload() (*data.Federation, nn.Model, error) {
	switch c.dataset {
	case "synthetic":
		cfg := data.DefaultSyntheticConfig(0.5, 0.5)
		cfg.Nodes = c.nodes
		cfg.K = c.k
		cfg.Seed = c.seed
		fed, err := data.GenerateSynthetic(cfg)
		if err != nil {
			return nil, nil, err
		}
		return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}, nil
	case "mnist":
		cfg := data.DefaultMNISTConfig()
		cfg.Nodes = c.nodes
		cfg.K = c.k
		cfg.Seed = c.seed
		fed, err := data.GenerateMNIST(cfg)
		if err != nil {
			return nil, nil, err
		}
		return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}, nil
	case "sent140":
		cfg := data.DefaultSent140Config()
		cfg.Nodes = c.nodes
		cfg.K = c.k
		cfg.Seed = c.seed
		cfg.EmbedDim = 24
		cfg.SeqLen = 15
		fed, err := data.GenerateSent140(cfg)
		if err != nil {
			return nil, nil, err
		}
		m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 64, 32, 16, fed.NumClasses}, BatchNorm: true})
		if err != nil {
			return nil, nil, err
		}
		return fed, m, nil
	case "rec":
		cfg := data.DefaultRecommendConfig()
		cfg.Users = c.nodes
		cfg.K = c.k
		cfg.Seed = c.seed
		fed, err := data.GenerateRecommend(cfg)
		if err != nil {
			return nil, nil, err
		}
		// An MLP (not all-head softmax) so the sync mask and the RepShare
		// rule have a representation block to act on.
		m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 16, fed.NumClasses}, L2: 0.01})
		if err != nil {
			return nil, nil, err
		}
		return fed, m, nil
	case "fault":
		cfg := data.DefaultFaultConfig()
		cfg.Devices = c.nodes
		cfg.K = c.k
		cfg.Seed = c.seed
		fed, err := data.GenerateFault(cfg)
		if err != nil {
			return nil, nil, err
		}
		m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 16, fed.NumClasses}, L2: 0.01})
		if err != nil {
			return nil, nil, err
		}
		return fed, m, nil
	case "csv":
		if c.csvPath == "" || c.csvDim <= 0 {
			return nil, nil, fmt.Errorf("-dataset csv requires -csv <path> and -csv-dim <n>")
		}
		samples, classes, err := data.LoadCSVFile(c.csvPath, c.csvDim)
		if err != nil {
			return nil, nil, err
		}
		fed, err := data.BuildFederation("csv:"+c.csvPath, samples, classes, data.PartitionConfig{
			Nodes:          c.nodes,
			ClassesPerNode: 2, // the paper's label-skew level
			K:              c.k,
			SourceFraction: 0.8,
			Seed:           c.seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}, nil
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (want synthetic, mnist, sent140, rec, fault or csv)", c.dataset)
	}
}

// faultFlags holds the resilience and chaos-injection flags shared by the
// train and platform modes.
type faultFlags struct {
	roundTimeout   time.Duration
	minNodes       int
	guard          float64
	statePath      string
	stateEvery     int
	resume         bool
	async          bool
	stalenessDecay float64
	maxStaleness   int
	asyncQuorum    float64
	chaosSpec      string
	chaosSeed      uint64
	chaosDrop      float64
	chaosCorrupt   float64
	chaosLatency   time.Duration
	chaosJitter    time.Duration
}

func addFaultFlags(fs *flag.FlagSet) *faultFlags {
	f := &faultFlags{}
	fs.DurationVar(&f.roundTimeout, "round-timeout", 0, "per-operation deadline enabling fault-tolerant rounds with drop/rejoin (0 = strict)")
	fs.IntVar(&f.minNodes, "min-nodes", 0, "abort a fault-tolerant run when fewer nodes remain alive (0 means 1)")
	fs.Float64Var(&f.guard, "guard", 0, "sanitation guard radius relative to broadcast θ (0 disables the norm guard)")
	fs.StringVar(&f.statePath, "state", "", "snapshot (round, iter, θ, stats) to this file for crash recovery")
	fs.IntVar(&f.stateEvery, "state-every", 1, "with -state: snapshot every N aggregated rounds")
	fs.BoolVar(&f.resume, "resume", false, "resume from the -state snapshot when it exists")
	fs.BoolVar(&f.async, "async", false, "buffered-async aggregation: apply updates as they arrive with staleness-decayed weights (requires -round-timeout)")
	fs.Float64Var(&f.stalenessDecay, "staleness-decay", 0.6, "with -async: per-round weight decay α for stale updates (w = ω·α^staleness)")
	fs.IntVar(&f.maxStaleness, "max-staleness", 4, "with -async: drop updates (and suspect nodes) more than this many aggregations behind")
	fs.Float64Var(&f.asyncQuorum, "async-quorum", 0.8, "with -async: fraction of the round's dispatched updates to wait for before aggregating")
	fs.StringVar(&f.chaosSpec, "chaos", "", `scripted faults "<node>:<op>@<round>,..." with ops kill, revive, part-send, part-recv, heal, corrupt, drop, send-err, slow=<dur>`)
	fs.Uint64Var(&f.chaosSeed, "chaos-seed", 1, "seed for the injected-fault random streams")
	fs.Float64Var(&f.chaosDrop, "chaos-drop", 0, "per-message drop probability")
	fs.Float64Var(&f.chaosCorrupt, "chaos-corrupt", 0, "per-update payload corruption probability")
	fs.DurationVar(&f.chaosLatency, "chaos-latency", 0, "mean injected per-message latency")
	fs.DurationVar(&f.chaosJitter, "chaos-jitter", 0, "injected latency jitter")
	return f
}

// apply folds the fault flags into cfg, building the chaos link wrapper when
// any injection was requested.
func (f *faultFlags) apply(cfg *core.Config) error {
	cfg.RoundTimeout = f.roundTimeout
	cfg.MinNodes = f.minNodes
	cfg.GuardRadius = f.guard
	cfg.CheckpointPath = f.statePath
	cfg.CheckpointEvery = f.stateEvery
	cfg.Resume = f.resume
	if f.async {
		cfg.Async = true
		cfg.StalenessDecay = f.stalenessDecay
		cfg.MaxStaleness = f.maxStaleness
		cfg.AsyncQuorum = f.asyncQuorum
	}
	chaosOn := f.chaosSpec != "" || f.chaosDrop > 0 || f.chaosCorrupt > 0 ||
		f.chaosLatency > 0 || f.chaosJitter > 0
	if !chaosOn {
		return nil
	}
	events, err := transport.ParseScenario(f.chaosSpec)
	if err != nil {
		return err
	}
	cfg.WrapLink = func(i int, l transport.Link) transport.Link {
		return transport.NewChaos(l, transport.ChaosConfig{
			Seed:        f.chaosSeed + uint64(i)*0x9e3779b9,
			DropProb:    f.chaosDrop,
			CorruptProb: f.chaosCorrupt,
			Latency:     f.chaosLatency,
			Jitter:      f.chaosJitter,
			Scenario:    events[i],
		})
	}
	return nil
}

// obsFlags holds the observability flags shared by the train and platform
// modes.
type obsFlags struct {
	metricsOut string
	pprofAddr  string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write per-round metrics as JSON lines (schema-versioned) to this file")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and expvar comm counters on this address (e.g. localhost:6060)")
	return o
}

// start builds the observer stack the flags requested: a JSONL metrics sink,
// and — when a pprof address is given — an expvar mirror of the comm
// counters served next to /debug/pprof. The returned close function flushes
// the metrics file; run it once training ends. With no flags set it returns
// a nil observer, which the training stack treats as zero-overhead.
func (o *obsFlags) start() (obs.RoundObserver, func() error, error) {
	var observers []obs.RoundObserver
	closeFn := func() error { return nil }
	if o.metricsOut != "" {
		sink, err := obs.CreateJSONL(o.metricsOut)
		if err != nil {
			return nil, nil, err
		}
		observers = append(observers, sink)
		closeFn = sink.Close
	}
	if o.pprofAddr != "" {
		observers = append(observers, obs.NewExpvarSink("fedml.comm"))
		ln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return nil, nil, fmt.Errorf("pprof listen %s: %w", o.pprofAddr, err)
		}
		fmt.Printf("profiling: http://%s/debug/pprof/ (comm counters at /debug/vars)\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}
	return obs.Multi(observers...), closeFn, nil
}

// printResilience summarizes the fault accounting of a finished run.
func printResilience(stats core.CommStats) {
	if stats.Dropped+stats.Rejoined+stats.Rejected+stats.SkippedRounds+stats.StaleApplied+stats.StaleDropped+stats.BudgetFiltered == 0 {
		return
	}
	fmt.Printf("resilience: %d dropped, %d rejoined, %d updates rejected, %d rounds skipped\n",
		stats.Dropped, stats.Rejoined, stats.Rejected, stats.SkippedRounds)
	if stats.StaleApplied+stats.StaleDropped > 0 {
		fmt.Printf("staleness: %d updates applied late (decayed), %d dropped past the bound\n",
			stats.StaleApplied, stats.StaleDropped)
	}
	if stats.BudgetFiltered > 0 {
		fmt.Printf("budget: %d node-rounds sat out over the energy budget\n", stats.BudgetFiltered)
	}
}

func (c *commonFlags) trainConfig(track func(round, iter int, theta tensor.Vec)) core.Config {
	cfg := core.Config{
		Alpha: c.alpha, Beta: c.beta, T: c.t, T0: c.t0, Seed: c.seed,
		Codec:   c.codec,
		OnRound: track,
	}
	if c.robust {
		cfg.Robust = &core.RobustConfig{
			Lambda: c.lambda, Nu: 1, Ta: 10, N0: maxInt(1, c.t*2/5/c.t0), R: 2,
			ClampMin: 0, ClampMax: 1,
		}
	}
	return cfg
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("fedml train", flag.ContinueOnError)
	c := addCommonFlags(fs)
	ff := addFaultFlags(fs)
	of := addObsFlags(fs)
	shards := fs.Int("shards", 0, "two-tier topology: number of leaf shard aggregators under a director (0 = flat platform); θ is bit-identical to the flat run")
	adaptSteps := fs.Int("adapt-steps", 5, "fast-adaptation gradient steps at target nodes")
	savePath := fs.String("save", "", "write the trained meta-model checkpoint to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fed, m, err := c.buildWorkload()
	if err != nil {
		return err
	}
	fmt.Printf("federation %s: %d source nodes, %d target nodes, dim %d, %d classes\n",
		fed.Name, len(fed.Sources), len(fed.Targets), fed.Dim, fed.NumClasses)

	ob, closeObs, err := of.start()
	if err != nil {
		return err
	}
	cfg := c.trainConfig(func(round, iter int, theta tensor.Vec) {
		if round%5 == 0 || iter == c.t {
			g := eval.GlobalMetaObjective(m, fed, c.alpha, theta)
			fmt.Printf("round %4d (iter %5d): G(θ) = %.4f\n", round, iter, g)
			// OnRound fires after the round's end event, so the sinks fold
			// this measurement into the record of the round it belongs to.
			obs.Emit(ob, obs.Event{Type: obs.TypeMetaLoss, Round: round, Iter: iter, Value: g})
		}
	})
	cfg.Observer = ob
	if err := c.applyPolicies(&cfg, m); err != nil {
		return err
	}
	if err := ff.apply(&cfg); err != nil {
		return err
	}
	var (
		theta tensor.Vec
		comm  core.CommStats
	)
	if *shards > 0 {
		if cfg.Async {
			return fmt.Errorf("-async is not supported with -shards (the async consistency model is flat-platform only)")
		}
		theta, comm, err = trainSharded(m, fed, cfg, *shards, of.metricsOut)
	} else {
		var res *core.Result
		res, err = core.Train(m, fed, nil, cfg)
		if res != nil {
			theta, comm = res.Theta, res.Comm
		}
	}
	if err != nil {
		_ = closeObs()
		return err
	}
	if err := closeObs(); err != nil {
		return err
	}
	if of.metricsOut != "" {
		fmt.Printf("per-round metrics written to %s\n", of.metricsOut)
	}
	fmt.Printf("training done: %d rounds, %d messages, %.1f KiB transferred\n",
		comm.Rounds, comm.Messages, float64(comm.Bytes)/1024)
	printResilience(comm)

	curve := eval.AverageAdaptationCurve(m, theta, fed.Targets, c.alpha, *adaptSteps)
	fmt.Println("fast adaptation at held-out target nodes:")
	for _, p := range curve {
		fmt.Printf("  step %2d: loss %.4f  accuracy %.3f\n", p.Step, p.Loss, p.Accuracy)
	}

	if *savePath != "" {
		desc := fmt.Sprintf("FedML %s nodes=%d T=%d T0=%d", c.dataset, c.nodes, c.t, c.t0)
		ck, err := checkpoint.FromModel(m, theta, c.alpha, desc)
		if err != nil {
			return err
		}
		if err := checkpoint.SaveFile(*savePath, ck); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", *savePath)
	}
	return nil
}

// shardMetricsPath derives the per-shard metrics file from the root path by
// inserting ".shard<N>" before the extension: metrics.jsonl →
// metrics.shard0.jsonl.
func shardMetricsPath(path string, shard int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.shard%d%s", strings.TrimSuffix(path, ext), shard, ext)
}

// trainSharded runs training through the two-tier topology: the nodes are
// partitioned into shard aggregators under a director. With -metrics-out set,
// each shard writes its own JSONL stream next to the director's — the shard
// streams carry the traffic and fault events, the director stream the global
// rounds, and each validates independently under cmd/obscheck.
func trainSharded(m nn.Model, fed *data.Federation, cfg core.Config, shards int, metricsOut string) (tensor.Vec, core.CommStats, error) {
	ranges := core.ShardRanges(len(fed.Sources), shards)
	opt := core.ShardedOptions{Ranges: ranges}
	sinks := make([]*obs.JSONLSink, 0, len(ranges))
	closeSinks := func() error {
		var first error
		for _, s := range sinks {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if metricsOut != "" {
		// The sinks are pre-created here because ShardObserver cannot fail.
		for s := range ranges {
			sink, err := obs.CreateJSONL(shardMetricsPath(metricsOut, s))
			if err != nil {
				_ = closeSinks()
				return nil, core.CommStats{}, err
			}
			sinks = append(sinks, sink)
		}
		opt.ShardObserver = func(shard int) obs.RoundObserver { return sinks[shard] }
	}
	fmt.Printf("two-tier topology: %d shard aggregators over %d nodes\n", len(ranges), len(fed.Sources))
	res, err := core.TrainSharded(m, fed, nil, cfg, opt)
	if err != nil {
		_ = closeSinks()
		return nil, core.CommStats{}, err
	}
	if err := closeSinks(); err != nil {
		return nil, core.CommStats{}, err
	}
	for s, st := range res.Shards {
		fmt.Printf("  shard %d (nodes %d..%d): %d messages, %.1f KiB\n",
			s, ranges[s].Lo, ranges[s].Hi-1, st.Messages, float64(st.Bytes)/1024)
	}
	return res.Theta, res.Comm, nil
}

// runAdapt plays the target edge device: load a meta-model checkpoint,
// adapt it with a few gradient steps on one target node's K-sample training
// set, and report test performance — real-time edge intelligence from a
// file.
func runAdapt(args []string) error {
	fs := flag.NewFlagSet("fedml adapt", flag.ContinueOnError)
	c := addCommonFlags(fs)
	ckPath := fs.String("checkpoint", "", "checkpoint produced by fedml train -save (required)")
	target := fs.Int("target", 0, "index of the target node to adapt for")
	steps := fs.Int("steps", 1, "adaptation gradient steps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckPath == "" {
		return fmt.Errorf("adapt: -checkpoint is required")
	}
	ck, err := checkpoint.LoadFile(*ckPath)
	if err != nil {
		return err
	}
	m, err := ck.Model()
	if err != nil {
		return err
	}
	fed, _, err := c.buildWorkload()
	if err != nil {
		return err
	}
	if fed.Dim*fed.NumClasses == 0 || m.NumParams() == 0 {
		return fmt.Errorf("adapt: degenerate workload or model")
	}
	if *target < 0 || *target >= len(fed.Targets) {
		return fmt.Errorf("adapt: target %d out of range [0, %d)", *target, len(fed.Targets))
	}
	node := fed.Targets[*target]
	if len(node.Train[0].X) != ckModelInputDim(m) {
		return fmt.Errorf("adapt: checkpoint expects %d-dim inputs, dataset provides %d",
			ckModelInputDim(m), len(node.Train[0].X))
	}

	theta := tensor.Vec(ck.Params)
	fmt.Printf("checkpoint: %s (α=%g)\n", ck.Description, ck.Alpha)
	fmt.Printf("before adaptation: loss %.4f accuracy %.3f\n",
		nn.Loss(m, theta, node.Test), nn.Accuracy(m, theta, node.Test))
	phi := meta.Adapt(m, theta, node.Train, ck.Alpha, *steps)
	fmt.Printf("after %d step(s):   loss %.4f accuracy %.3f\n",
		*steps, nn.Loss(m, phi, node.Test), nn.Accuracy(m, phi, node.Test))
	return nil
}

// ckModelInputDim reports the input dimension of a reconstructed model.
func ckModelInputDim(m nn.Model) int {
	switch mt := m.(type) {
	case *nn.SoftmaxRegression:
		return mt.In
	case *nn.MLP:
		return mt.InputDim()
	default:
		return -1
	}
}

func runPlatform(args []string) error {
	fs := flag.NewFlagSet("fedml platform", flag.ContinueOnError)
	c := addCommonFlags(fs)
	ff := addFaultFlags(fs)
	of := addObsFlags(fs)
	addr := fs.String("addr", ":7001", "listen address for node connections")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fed, m, err := c.buildWorkload()
	if err != nil {
		return err
	}
	n := len(fed.Sources)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	defer ln.Close()
	fmt.Printf("platform listening on %s, waiting for %d nodes...\n", ln.Addr(), n)

	links, err := transport.Accept(ln, n)
	if err != nil {
		return err
	}
	defer func() {
		for _, l := range links {
			_ = l.Close()
		}
	}()
	fmt.Println("all nodes connected; starting federated meta-training")

	// TCP accept order is arbitrary, so the platform cannot match links to
	// per-node data sizes; aggregate uniformly (nodes identify themselves in
	// their updates, but uniform weights keep the protocol stateless).
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	theta0 := m.InitParams(rng.New(c.seed))
	ob, closeObs, err := of.start()
	if err != nil {
		return err
	}
	cfg := c.trainConfig(func(round, iter int, theta tensor.Vec) {
		g := eval.GlobalMetaObjective(m, fed, c.alpha, theta)
		fmt.Printf("round %4d (iter %5d): G(θ) = %.4f\n", round, iter, g)
		obs.Emit(ob, obs.Event{Type: obs.TypeMetaLoss, Round: round, Iter: iter, Value: g})
	})
	cfg.Observer = ob
	if err := c.applyPolicies(&cfg, m); err != nil {
		return err
	}
	if err := ff.apply(&cfg); err != nil {
		return err
	}
	// RunPlatform takes pre-built links, so the chaos wrapper (normally
	// applied by Train) is applied here.
	if cfg.WrapLink != nil {
		for i := range links {
			links[i] = cfg.WrapLink(i, links[i])
		}
	}
	theta, stats, err := core.RunPlatform(links, weights, theta0, cfg)
	if err != nil {
		_ = closeObs()
		return err
	}
	if err := closeObs(); err != nil {
		return err
	}
	if of.metricsOut != "" {
		fmt.Printf("per-round metrics written to %s\n", of.metricsOut)
	}
	fmt.Printf("done: %d rounds, %d messages, %.1f KiB\n", stats.Rounds, stats.Messages, float64(stats.Bytes)/1024)
	printResilience(stats)

	curve := eval.AverageAdaptationCurve(m, theta, fed.Targets, c.alpha, 5)
	fmt.Println("fast adaptation at held-out target nodes:")
	for _, p := range curve {
		fmt.Printf("  step %2d: loss %.4f  accuracy %.3f\n", p.Step, p.Loss, p.Accuracy)
	}
	return nil
}

func runNode(args []string) error {
	fs := flag.NewFlagSet("fedml node", flag.ContinueOnError)
	c := addCommonFlags(fs)
	addr := fs.String("addr", "localhost:7001", "platform address")
	id := fs.Int("id", 0, "this node's index among the federation's source nodes")
	retries := fs.Int("retries", 0, "retry attempts for transient link errors (0 = fail fast)")
	retryBase := fs.Duration("retry-base", 20*time.Millisecond, "initial retry backoff (doubles per attempt, with jitter)")
	redial := fs.Bool("redial", false, "re-dial the platform between retry attempts")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fed, m, err := c.buildWorkload()
	if err != nil {
		return err
	}
	if *id < 0 || *id >= len(fed.Sources) {
		return fmt.Errorf("node id %d out of range [0, %d)", *id, len(fed.Sources))
	}
	link, err := transport.Dial(*addr)
	if err != nil {
		return err
	}
	defer link.Close()
	fmt.Printf("node %d connected to %s (%d local samples)\n", *id, *addr, fed.Sources[*id].Size())

	nc := core.NodeConfig{
		ID:     *id,
		Model:  m,
		Data:   fed.Sources[*id],
		Shared: c.trainConfig(nil),
		Retry:  core.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase},
	}
	if *redial {
		nc.Redial = func() (transport.Link, error) { return transport.Dial(*addr) }
	}
	err = core.RunNode(link, nc)
	if err != nil {
		return err
	}
	fmt.Printf("node %d finished\n", *id)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
