package fedml_test

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"github.com/edgeai/fedml/internal/checkpoint"
	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/experiments"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// The experiment benchmarks run shrunken-but-structurally-identical
// configurations of each table/figure so that `go test -bench=.` finishes in
// minutes; `cmd/fedml-bench -paper` runs the full-scale versions.

func benchExperiment(b *testing.B, run func() error) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	benchExperiment(b, func() error {
		_, err := experiments.RunTable1(experiments.Table1Config{Scale: experiments.ScaleCI})
		return err
	})
}

func BenchmarkFig2aNodeSimilarity(b *testing.B) {
	cfg := experiments.DefaultFig2aConfig(experiments.ScaleCI)
	cfg.T = 100
	benchExperiment(b, func() error {
		_, err := experiments.RunFig2a(cfg)
		return err
	})
}

func BenchmarkFig2bLocalSteps(b *testing.B) {
	cfg := experiments.DefaultFig2bConfig(experiments.ScaleCI)
	cfg.T = 100
	benchExperiment(b, func() error {
		_, err := experiments.RunFig2b(cfg)
		return err
	})
}

func BenchmarkFig3aSent140Convergence(b *testing.B) {
	cfg := experiments.DefaultFig3aConfig(experiments.ScaleCI)
	cfg.T = 20
	benchExperiment(b, func() error {
		_, err := experiments.RunFig3a(cfg)
		return err
	})
}

func BenchmarkFig3bTargetSimilarity(b *testing.B) {
	cfg := experiments.DefaultFig3bConfig(experiments.ScaleCI)
	cfg.T = 50
	benchExperiment(b, func() error {
		_, err := experiments.RunFig3b(cfg)
		return err
	})
}

func BenchmarkFig3cAdaptSynthetic(b *testing.B) {
	cfg := experiments.DefaultAdaptCompareConfig("synthetic", experiments.ScaleCI)
	cfg.T = 50
	cfg.Ks = []int{5}
	benchExperiment(b, func() error {
		_, err := experiments.RunAdaptCompare(cfg)
		return err
	})
}

func BenchmarkFig3dAdaptMNIST(b *testing.B) {
	cfg := experiments.DefaultAdaptCompareConfig("mnist", experiments.ScaleCI)
	cfg.T = 30
	cfg.Ks = []int{5}
	benchExperiment(b, func() error {
		_, err := experiments.RunAdaptCompare(cfg)
		return err
	})
}

func BenchmarkFig3eAdaptSent140(b *testing.B) {
	cfg := experiments.DefaultAdaptCompareConfig("sent140", experiments.ScaleCI)
	cfg.T = 20
	cfg.Ks = []int{5}
	benchExperiment(b, func() error {
		_, err := experiments.RunAdaptCompare(cfg)
		return err
	})
}

func BenchmarkFig4RobustAdapt(b *testing.B) {
	cfg := experiments.DefaultFig4Config(experiments.ScaleCI)
	cfg.T = 100
	cfg.N0 = 8
	cfg.Lambdas = []float64{0.01}
	benchExperiment(b, func() error {
		_, err := experiments.RunFig4(cfg)
		return err
	})
}

func BenchmarkFig4eXiSweep(b *testing.B) {
	cfg := experiments.DefaultFig4eConfig(experiments.ScaleCI)
	cfg.T = 100
	cfg.N0 = 8
	cfg.Xis = []float64{0.02}
	benchExperiment(b, func() error {
		_, err := experiments.RunFig4e(cfg)
		return err
	})
}

func BenchmarkThm3SurrogateDistance(b *testing.B) {
	cfg := experiments.DefaultThm3Config(experiments.ScaleCI)
	cfg.T = 50
	cfg.OptSteps = 50
	benchExperiment(b, func() error {
		_, err := experiments.RunThm3(cfg)
		return err
	})
}

func BenchmarkExtTimeToTarget(b *testing.B) {
	cfg := experiments.DefaultExtTimeConfig(experiments.ScaleCI)
	cfg.T = 100
	cfg.TargetG = 1.2
	benchExperiment(b, func() error {
		_, err := experiments.RunExtTime(cfg)
		return err
	})
}

func BenchmarkExtBaselines(b *testing.B) {
	cfg := experiments.DefaultExtBaselinesConfig(experiments.ScaleCI)
	cfg.T = 30
	benchExperiment(b, func() error {
		_, err := experiments.RunExtBaselines(cfg)
		return err
	})
}

// --- Ablation benchmarks (DESIGN.md §5) ---

func benchFederation(b *testing.B) (*data.Federation, *nn.SoftmaxRegression) {
	b.Helper()
	cfg := data.DefaultSyntheticConfig(0.5, 0.5)
	cfg.Nodes = 10
	cfg.Seed = 1
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
}

// BenchmarkAblationFirstOrder compares the cost of federated training with
// the exact second-order meta-gradient vs the FOMAML approximation.
func BenchmarkAblationFirstOrder(b *testing.B) {
	fed, m := benchFederation(b)
	for _, mode := range []meta.GradMode{meta.SecondOrder, meta.FirstOrder} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Alpha: 0.05, Beta: 0.01, T: 20, T0: 5, Seed: 1, GradMode: mode}
				if _, err := core.Train(m, fed, nil, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHVP compares the analytic softmax Hessian-vector product
// against the generic central-finite-difference fallback.
func BenchmarkAblationHVP(b *testing.B) {
	fed, m := benchFederation(b)
	r := rng.New(1)
	theta := m.InitParams(r)
	v := m.InitParams(r)
	batch := fed.Sources[0].Test

	b.Run("analytic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = nn.HVP(m, theta, batch, v)
		}
	})
	b.Run("finite-difference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = nn.FiniteDiffHVP(m, theta, batch, v)
		}
	})
}

// BenchmarkAblationTransport compares one round-trip of a full parameter
// vector over the in-memory pipe vs loopback TCP.
func BenchmarkAblationTransport(b *testing.B) {
	params := make([]float64, 7850) // MNIST softmax parameter count

	b.Run("memory", func(b *testing.B) {
		p, n := transport.Pair()
		defer p.Close()
		defer n.Close()
		go func() {
			for {
				m, err := n.Recv()
				if err != nil {
					return
				}
				if err := n.Send(m); err != nil {
					return
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Send(transport.Msg{Kind: transport.KindParams, Params: params}); err != nil {
				b.Fatal(err)
			}
			if _, err := p.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("tcp", func(b *testing.B) {
		benchTCPRoundTrip(b, transport.Msg{Kind: transport.KindParams, Params: params})
	})
}

// benchTCPRoundTrip times msg going out over a loopback TCP link and coming
// back from an echoing peer: two messages per op, so allocs/op is twice the
// link's per-received-message count (the sender allocates nothing).
func benchTCPRoundTrip(b *testing.B, msg transport.Msg) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		links, err := transport.Accept(ln, 1)
		if err != nil {
			return
		}
		defer links[0].Close()
		for {
			m, err := links[0].Recv()
			if err != nil {
				return
			}
			if err := links[0].Send(m); err != nil {
				return
			}
		}
	}()
	link, err := transport.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	trip := func() {
		if err := link.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := link.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	// The first trip allocates what both ends keep: the links' stream and
	// receive buffers.
	trip()
	b.SetBytes(int64(2 * (8*len(msg.Params) + len(msg.Payload))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
	b.StopTimer()
	link.Close()
	<-done
}

// BenchmarkTCPRoundTrip measures the TCP link alone on the three message
// shapes the TCP workloads of bench/ put on it: a raw softmax vector (one
// frame fits the link's buffer), a raw MLP vector (several buffers) and a
// steady-state topk payload with its codec name. The allocation count is
// the contract: none per message, since every frame is read into the
// receiving link's buffers and a repeated codec name reuses its string.
func BenchmarkTCPRoundTrip(b *testing.B) {
	// Trained-looking values: every float costs its full 8 bytes whatever
	// the format (an all-zero vector would not under a varint encoding).
	params := make([]float64, codecBenchDim)
	r := rng.New(1)
	for i := range params {
		params[i] = 0.1 * r.Norm()
	}
	b.Run("softmax7850", func(b *testing.B) {
		benchTCPRoundTrip(b, transport.Msg{Kind: transport.KindParams, Round: 1, Params: params[:7850]})
	})
	b.Run("mlp25970", func(b *testing.B) {
		benchTCPRoundTrip(b, transport.Msg{Kind: transport.KindParams, Round: 1, Params: params})
	})
	b.Run("topk_payload", func(b *testing.B) {
		enc, _, v, drift := codecBenchPair(b, "topk")
		drift()
		payload, err := enc.Encode(v)
		if err != nil {
			b.Fatal(err)
		}
		benchTCPRoundTrip(b, transport.Msg{Kind: transport.KindUpdate, Round: 1, Codec: "topk", Payload: payload})
	})
}

// BenchmarkShardedSimRound measures one global round at the fleet shape of
// ext-scale: 65 536 core.SimNodeLinks of 32 params (linear dynamics
// u = θ + η(c_i − θ)) under 8 shard aggregators and a director. Round 1
// sizes every per-link and per-shard buffer and runs before the timer
// starts, so allocs/op is the steady-state round's — a handful per shard,
// none per node (TestShardedSimRoundAllocsPerNode pins that).
func BenchmarkShardedSimRound(b *testing.B) {
	const n, dim, shards, eta = 65536, 32, 8, 0.3
	r := rng.New(1)
	centres := make([]float64, n*dim)
	for i := range centres {
		centres[i] = r.Norm()
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 0.5 + float64(i%10)/10
	}
	ranges := core.ShardRanges(n, shards)
	dirLinks := make([]transport.Link, len(ranges))
	shardCfg := core.Config{Alpha: 0.01, Beta: 0.01, T: b.N + 1, T0: 1, Seed: 1}
	errs := make(chan error, len(ranges))
	for s, rg := range ranges {
		var up transport.Link
		dirLinks[s], up = transport.Pair()
		sim := make([]core.SimNodeLink, rg.Hi-rg.Lo)
		links := make([]transport.Link, len(sim))
		for k := range sim {
			sim[k] = core.SimNodeLink{ID: rg.Lo + k, Update: func(id, _, _ int, theta []float64) []float64 {
				c := centres[id*dim : (id+1)*dim]
				for d := range theta {
					theta[d] += eta * (c[d] - theta[d])
				}
				return theta
			}}
			links[k] = &sim[k]
		}
		go func(up transport.Link, links []transport.Link, rg core.ShardRange) {
			errs <- core.RunShardAggregator(up, links, weights[rg.Lo:rg.Hi], rg, shardCfg)
		}(up, links, rg)
	}
	dirCfg := shardCfg
	dirCfg.OnRound = func(round, _ int, _ tensor.Vec) {
		if round == 1 {
			b.ResetTimer()
		}
	}
	theta0 := tensor.NewVec(dim)
	b.ReportAllocs()
	_, _, _, err := core.RunDirector(dirLinks, ranges, theta0, dirCfg)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	for range ranges {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocalSteps measures how the communication budget trades
// against wall time as T0 varies at fixed T (the knob Theorem 2 analyzes).
func BenchmarkAblationLocalSteps(b *testing.B) {
	fed, m := benchFederation(b)
	for _, t0 := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("T0=%d", t0), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Alpha: 0.05, Beta: 0.01, T: 20, T0: t0, Seed: 1}
				res, err := core.Train(m, fed, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Comm.Messages), "msgs/op")
			}
		})
	}
}

// BenchmarkMetaStep is the micro-benchmark of one full meta-update (inner
// step + outer gradient + HVP correction) on the synthetic model.
func BenchmarkMetaStep(b *testing.B) {
	fed, m := benchFederation(b)
	theta := m.InitParams(rng.New(1))
	nd := fed.Sources[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = meta.Step(m, theta, nd.Train, nd.Test, 0.05, 0.01, meta.SecondOrder)
	}
}

// BenchmarkFastAdaptation measures the target-side cost of real-time edge
// intelligence: one adaptation gradient step on K samples.
func BenchmarkFastAdaptation(b *testing.B) {
	fed, m := benchFederation(b)
	theta := m.InitParams(rng.New(1))
	nd := fed.Targets[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = meta.Adapt(m, theta, nd.Train, 0.05, 1)
	}
}

// --- Zero-allocation kernel benchmarks (DESIGN.md §6) ---

// benchMNIST returns the federation and model of bench/'s tcp_softmax_comm
// workload (MNIST-like digits, softmax regression 784→10 with L2 0.01, 7 850
// parameters), every node at the generator's mean size: K=5 training
// samples, 29 test samples. Its 62.7 KB weight matrix does not fit a 48 KiB
// L1d; the Synthetic model's 4.8 KB does.
func benchMNIST(b *testing.B) (*data.Federation, *nn.SoftmaxRegression) {
	b.Helper()
	cfg := data.DefaultMNISTConfig()
	cfg.Nodes, cfg.Seed = 5, 1
	cfg.StdSamples = 0
	fed, err := data.GenerateMNIST(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
}

// BenchmarkGradInto measures the buffered gradient kernels against a warm
// workspace; steady state is expected to report 0 allocs/op. softmax and mlp
// run the synthetic node's training batch; mnist runs the 29-sample test
// batch of the meta-gradient's outer gradient at tcp_softmax_comm's shape.
func BenchmarkGradInto(b *testing.B) {
	fed, sm := benchFederation(b)
	mnist, mm := benchMNIST(b)
	mlp, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 16, fed.NumClasses}, BatchNorm: true, L2: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		m     nn.Model
		batch []data.Sample
	}{
		{"softmax", sm, fed.Sources[0].Train},
		{"mlp", mlp, fed.Sources[0].Train},
		{"mnist", mm, mnist.Sources[0].Test},
	} {
		b.Run(tc.name, func(b *testing.B) {
			theta := tc.m.InitParams(rng.New(1))
			ws := tc.m.NewWorkspace()
			out := tensor.NewVec(tc.m.NumParams())
			tc.m.GradInto(ws, theta, tc.batch, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.m.GradInto(ws, theta, tc.batch, out)
			}
		})
	}
}

// BenchmarkGradStepInto measures the fused gradient+descent-step kernel —
// one pass over the parameter vector instead of gradient-write, copy, axpy —
// that the core baseline rules and the meta/eval inner loops run. Steady
// state is expected to report 0 allocs/op.
func BenchmarkGradStepInto(b *testing.B) {
	fed, sm := benchFederation(b)
	batch := fed.Sources[0].Train
	mlp, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 16, fed.NumClasses}, BatchNorm: true, L2: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    nn.Model
	}{
		{"softmax", sm},
		{"mlp", mlp},
	} {
		b.Run(tc.name, func(b *testing.B) {
			theta := tc.m.InitParams(rng.New(1))
			ws := tc.m.NewWorkspace()
			out := tensor.NewVec(tc.m.NumParams())
			tc.m.GradStepInto(ws, theta, batch, 0.05, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.m.GradStepInto(ws, theta, batch, 0.05, out)
			}
		})
	}
}

// benchSent140 returns the federation and model the MLP workloads of bench/
// run (sent140 generator at EmbedDim 24, SeqLen 15: MLP 360→64→32→16→2 with
// batch norm, 25 970 parameters), every node at the generator's mean size:
// K=5 training samples, 37 test samples.
func benchSent140(b *testing.B) (*data.Federation, *nn.MLP) {
	b.Helper()
	cfg := data.DefaultSent140Config()
	cfg.Nodes, cfg.Seed = 4, 1
	cfg.EmbedDim, cfg.SeqLen = 24, 15
	cfg.StdSamples = 0
	fed, err := data.GenerateSent140(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 64, 32, 16, fed.NumClasses}, BatchNorm: true})
	if err != nil {
		b.Fatal(err)
	}
	return fed, m
}

// BenchmarkMetaGradInto measures one full buffered second-order meta-gradient
// (inner step + outer gradient + HVP correction) — the workspace counterpart
// of BenchmarkMetaStep's allocating path, and the unit of node compute in
// every round. softmax is the synthetic model with its analytic HVP; mnist
// is the softmax model of bench/'s tcp_softmax_comm workload (784→10, K=5,
// 29 test samples); mlp360 is the model of bench/'s mem_mlp_compute,
// tcp_mlp_topk and ft_ckpt_obs workloads with the finite-difference HVP
// (four backward passes per op).
func BenchmarkMetaGradInto(b *testing.B) {
	synth, sm := benchFederation(b)
	mnist, mm := benchMNIST(b)
	sent, mlp := benchSent140(b)
	for _, tc := range []struct {
		name string
		m    nn.Model
		nd   *data.NodeDataset
	}{
		{"softmax", sm, synth.Sources[0]},
		{"mnist", mm, mnist.Sources[0]},
		{"mlp360", mlp, sent.Sources[0]},
	} {
		b.Run(tc.name, func(b *testing.B) {
			theta := tc.m.InitParams(rng.New(1))
			ws := meta.NewWorkspace(tc.m)
			grad := tensor.NewVec(tc.m.NumParams())
			ws.GradInto(theta, tc.nd.Train, tc.nd.Test, 0.05, meta.SecondOrder, grad)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.GradInto(theta, tc.nd.Train, tc.nd.Test, 0.05, meta.SecondOrder, grad)
			}
		})
	}
}

// BenchmarkInputGradInto measures one frozen-batch-norm input gradient at
// the same model: the per-sample, per-ascent-step kernel of Algorithm 2's
// adversarial data generation (dro.Perturb) and of the FGSM/PGD attacks.
func BenchmarkInputGradInto(b *testing.B) {
	fed, m := benchSent140(b)
	b.Run("mlp360", func(b *testing.B) {
		theta := m.InitParams(rng.New(1))
		nd := fed.Sources[0]
		ws := m.NewWorkspace()
		out := tensor.NewVec(m.Dims()[0])
		m.InputGradInto(ws, theta, nd.Train[0], nd.Train, out)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.InputGradInto(ws, theta, nd.Train[0], nd.Train, out)
		}
	})
}

// --- Codec kernel benchmarks (DESIGN.md §10) ---

// codecBenchDim is the parameter count of the sent140 MLP the tcp_mlp_topk
// benchmark workload ships: the message size the codec kernels are priced at.
const codecBenchDim = 25970

var codecBenchSpecs = []string{"raw", "f16", "q8", "topk"}

// codecBenchPair returns a synchronized encoder/decoder pair for spec, a
// parameter vector, and a drift step that moves the vector a little between
// messages, as training does — so topk runs its steady-state delta path on
// tie-heavy deltas (bench/probes.go times the same shape).
func codecBenchPair(b *testing.B, spec string) (enc, dec codec.Codec, v []float64, drift func()) {
	b.Helper()
	enc, err := codec.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	dec, _ = codec.New(spec)
	r := rng.New(1)
	v = make([]float64, codecBenchDim)
	for i := range v {
		v[i] = 0.1 * r.Norm()
	}
	first, err := enc.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dec.Decode(first); err != nil {
		b.Fatal(err)
	}
	return enc, dec, v, func() {
		for j := range v {
			v[j] += 1e-3 * float64(j%7-3)
		}
	}
}

var (
	codecBenchPayload []byte
	codecBenchVec     []float64
)

// BenchmarkCodecEncode measures one steady-state Encode per codec family.
// The allocation count is the contract: one per message (the payload).
func BenchmarkCodecEncode(b *testing.B) {
	for _, spec := range codecBenchSpecs {
		b.Run(spec, func(b *testing.B) {
			enc, _, v, drift := codecBenchPair(b, spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drift()
				p, err := enc.Encode(v)
				if err != nil {
					b.Fatal(err)
				}
				codecBenchPayload = p
			}
		})
	}
}

// BenchmarkCodecDecode measures one steady-state Decode per codec family:
// one allocation per message for the stateless codecs (the vector they hand
// out), none for topk (it lends its reference). A topk delta decodes only in
// sequence, so every iteration encodes its own payload with the timer
// stopped.
func BenchmarkCodecDecode(b *testing.B) {
	for _, spec := range codecBenchSpecs {
		b.Run(spec, func(b *testing.B) {
			enc, dec, v, drift := codecBenchPair(b, spec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				drift()
				p, err := enc.Encode(v)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				out, err := dec.Decode(p)
				if err != nil {
					b.Fatal(err)
				}
				codecBenchVec = out
			}
		})
	}
}

// BenchmarkDispatchTopK measures one strict topk round at the tcp_mlp_topk
// shape over 16 in-memory links: the platform encodes θ once for the 16
// links, each node decodes the broadcast and replies with a topk update, and
// the platform decodes the 16 replies into vectors it recycles and
// aggregates them. The nodes do no training, so the round is the codec path
// of both ends; round 1 (the full syncs that start every chain) runs before
// the timer starts. The allocation count is the contract: the platform's one
// payload and the nodes' sixteen, plus a handful per round, none θ-sized on
// the decode side.
func BenchmarkDispatchTopK(b *testing.B) {
	const nodes = 16
	r := rng.New(1)
	theta0 := tensor.NewVec(codecBenchDim)
	for i := range theta0 {
		theta0[i] = 0.1 * r.Norm()
	}
	links := make([]transport.Link, nodes)
	weights := make([]float64, nodes)
	errs := make(chan error, nodes)
	for i := range links {
		var nodeEnd transport.Link
		links[i], nodeEnd = transport.Pair()
		weights[i] = 1 + float64(i%4)
		go func(id int, l transport.Link) { errs <- topKStepNode(l, id) }(i, nodeEnd)
	}
	cfg := core.Config{Alpha: 0.01, Beta: 0.01, T: b.N + 1, T0: 1, Seed: 1, Codec: "topk"}
	cfg.OnRound = func(round, _ int, _ tensor.Vec) {
		if round == 1 {
			b.ResetTimer()
		}
	}
	b.ReportAllocs()
	_, _, err := core.RunPlatform(links, weights, theta0, cfg)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	for range links {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}

// topKStepNode answers every broadcast on l the way core.RunNode does under
// the topk codec, with a fixed node-specific step in place of local
// training: decode the broadcast, add the step, encode the reply.
func topKStepNode(l transport.Link, id int) error {
	newTopK := func() *codec.Masked {
		c, _ := codec.New("topk")
		return codec.NewMasked(c)
	}
	down, up := newTopK(), newTopK()
	r := rng.New(uint64(id) + 100)
	step := make([]float64, codecBenchDim)
	for i := range step {
		step[i] = 1e-3 * r.Norm()
	}
	reply := make([]float64, codecBenchDim)
	for {
		m, err := l.Recv()
		if err != nil || m.Kind == transport.KindDone {
			return err
		}
		global, _, err := down.DecodeMasked(m.Payload, nil)
		if err != nil {
			return err
		}
		if codec.IsFull(m.Payload) {
			up.Reset()
		}
		for i := range reply {
			reply[i] = global[i] + step[i]
		}
		p, err := up.Encode(reply)
		if err != nil {
			return err
		}
		if err := l.Send(transport.Msg{Kind: transport.KindUpdate, Round: m.Round, NodeID: id, Codec: m.Codec, Payload: p}); err != nil {
			return err
		}
	}
}

// runStateBench is the snapshot ft_ckpt_obs writes every round: the sent140
// MLP's 25 970 parameters plus the loop counters.
func runStateBench() *checkpoint.RunState {
	theta := make([]float64, codecBenchDim)
	r := rng.New(1)
	for i := range theta {
		theta[i] = r.Norm()
	}
	return &checkpoint.RunState{
		Version: checkpoint.RunStateVersion, Round: 60, Iter: 60, T0: 1, Dispersion: 0.5, Theta: theta,
		Totals: obs.Totals{Rounds: 60, Messages: 1920, Bytes: 199_449_600},
	}
}

// BenchmarkRunStateSave measures one crash snapshot: encode, write, fsync,
// rename. One buffer of the file's size is the allocation budget.
func BenchmarkRunStateSave(b *testing.B) {
	st := runStateBench()
	path := filepath.Join(b.TempDir(), "run.state")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkpoint.SaveRunState(path, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunStateLoad measures one resume read: the file's bytes plus θ.
func BenchmarkRunStateLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "run.state")
	if err := checkpoint.SaveRunState(path, runStateBench()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.LoadRunState(path); err != nil {
			b.Fatal(err)
		}
	}
}
