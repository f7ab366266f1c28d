package main

import (
	"fmt"
	"time"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
)

// workload is one row of the benchmark's workload table. Every field is an
// input property the program's behaviour depends on; nothing in the program
// can tell which workload it is running.
type workload struct {
	name, why string
	// dataset names the generator and model: "sent140" (MLP + batch norm),
	// "mnist" (softmax regression), "rec" (one-hidden-layer MLP), or "sim"
	// (no model: linear-dynamics SimNodeLinks under shard aggregators and a
	// director).
	dataset string
	// t0 is the local step count per round.
	t0 int
	// rounds and quickRounds are the rounds of one episode at full and at
	// -quick scale. A run repeats whole episodes until its time is up, so
	// the final θ of an episode is a function of the seed alone.
	rounds, quickRounds int
	// tcp runs every link over loopback TCP behind byte-counting conns.
	tcp bool
	// codec is core.Config.Codec.
	codec string
	// roundTimeout selects the fault-tolerant path (async pumps); no faults
	// are injected.
	roundTimeout time.Duration
	// extras adds what a production fault-tolerant run carries: the norm
	// guard, head-only masked sync, a checkpoint every round and a JSONL
	// observer sink.
	extras bool
	// async runs core.RunAsyncPlatform instead of core.RunPlatform.
	async bool
	// latency and slowLatency put a transport.Chaos in front of every
	// platform link (latency only, no faults); slowNode gets slowLatency.
	latency, slowLatency time.Duration
	slowNode             int
	// control describes what the control variant (-control) removes.
	control string
}

const (
	simNodes       = 65536
	simQuickNodes  = 2048
	simShards      = 8
	simDim         = 32
	simEta         = 0.3
	federationSize = 20 // 16 source nodes + 4 held-out targets
	alpha, beta    = 0.05, 0.01
)

// workloads is the table ISSUE 11 fixed. Round counts size one episode to
// one and a half to two seconds on the two-core reference box, so a
// fifteen-second run holds several episodes and at least a hundred rounds
// (sixty of the 200 ms rounds of mem_mlp_compute).
var workloads = []workload{
	{
		name:    "mem_mlp_compute",
		why:     "nn/meta/tensor do nearly all the work (MLP 360-64-32-16-2 + batch norm, T0=10, in-memory links): a kernel change shows here and nowhere else",
		dataset: "sent140", t0: 10, rounds: 8, quickRounds: 1,
	},
	{
		name:    "tcp_softmax_comm",
		why:     "transport (gob + syscalls over loopback TCP) is about half of each round and compute is tiny (softmax, T0=1): a wire change shows here, a kernel change must not",
		dataset: "mnist", t0: 1, rounds: 200, quickRounds: 4, tcp: true,
		control: "TCP (same config over transport.Pair)",
	},
	{
		name:    "tcp_mlp_topk",
		why:     "codec is most of the round (topk on 26k params) while socket bytes fall 7x: small encoded frames on the same transport as tcp_softmax_comm",
		dataset: "sent140", t0: 1, rounds: 15, quickRounds: 2, tcp: true, codec: "topk",
		control: "the topk codec (same config over TCP, raw)",
	},
	{
		name:    "sim_sharded_scale",
		why:     "65536 simulated nodes under 8 shard aggregators and a director: link-set gather, aggregation reduce and policy do all the work; nn, codec and TCP do none",
		dataset: "sim", t0: 1, rounds: 100, quickRounds: 3,
	},
	{
		name:    "ft_ckpt_obs",
		why:     "the fault-tolerant path (async pumps, guard, head-masked sync) plus a checkpoint and a JSONL record every round: checkpoint, obs and sanitize cost shows here only",
		dataset: "sent140", t0: 1, rounds: 60, quickRounds: 4, roundTimeout: 2 * time.Second, extras: true,
		control: "guard, sync mask, checkpoint and JSONL sink (pumps stay)",
	},
	{
		name:    "async_straggler",
		why:     "sleep-dominated (2 ms links, one 20 ms straggler, quorum 0.9): rounds/s measures the gather policy, not CPU, so compute or codec changes predict no change",
		dataset: "rec", t0: 5, rounds: 200, quickRounds: 6, roundTimeout: 2 * time.Second, async: true,
		latency: 2 * time.Millisecond, slowLatency: 20 * time.Millisecond, slowNode: 3,
		control: "the async loop (same federation and latencies through RunPlatform)",
	},
}

// nodeShape is each node's dataset size relative to the generator's mean: a
// fixed heavy-tailed schedule (the paper's node sizes follow a power law).
// How long a node computes follows its size, so sizes are part of a
// workload's shape, not of its seed: drawing them from the seed would move
// every timing metric by ±20 % from one seed to the next. The first 16
// entries are the source nodes.
var nodeShape = [federationSize]float64{
	1.0, 0.55, 1.4, 0.8, 2.5, 0.7, 1.05, 0.9, 1.6, 0.45, 1.15, 0.75, 1.9, 0.95, 0.6, 1.2,
	1.0, 1.3, 0.85, 1.1,
}

const maxNodeShape = 2.5

// reshape trims every node's test split to the nodeShape schedule. The
// generators were asked for maxNodeShape times the mean on every node.
func reshape(fed *data.Federation, mean float64, k int) {
	nodes := append(append([]*data.NodeDataset(nil), fed.Sources...), fed.Targets...)
	for i, nd := range nodes {
		size := max(k+2, int(mean*nodeShape[i]+0.5))
		nd.Test = nd.Test[:size-k]
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// controlVariant returns the workload with the one layer it is meant to
// stress taken out, for the "does it stress what its why says" comparison.
func (w workload) controlVariant() (workload, error) {
	switch {
	case w.control == "":
		return w, fmt.Errorf("workload %s has no control variant", w.name)
	case w.codec != "":
		w.codec = ""
	case w.tcp:
		w.tcp = false
	case w.extras:
		w.extras = false
	case w.async:
		w.async = false
	}
	return w, nil
}

func (w workload) episodeRounds(quick bool) int {
	if quick {
		return w.quickRounds
	}
	return w.rounds
}

// federation generates the workload's inputs from the seed.
func (w workload) federation(seed uint64) (*data.Federation, nn.Model, error) {
	switch w.dataset {
	case "sent140":
		cfg := data.DefaultSent140Config()
		cfg.Nodes, cfg.Seed = federationSize, seed
		cfg.EmbedDim, cfg.SeqLen = 24, 15
		mean := cfg.MeanSamples
		cfg.MeanSamples, cfg.StdSamples = mean*maxNodeShape, 0
		fed, err := data.GenerateSent140(cfg)
		if err != nil {
			return nil, nil, err
		}
		reshape(fed, mean, cfg.K)
		m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 64, 32, 16, fed.NumClasses}, BatchNorm: true})
		return fed, m, err
	case "mnist":
		cfg := data.DefaultMNISTConfig()
		cfg.Nodes, cfg.Seed = federationSize, seed
		mean := cfg.MeanSamples
		cfg.MeanSamples, cfg.StdSamples = mean*maxNodeShape, 0
		fed, err := data.GenerateMNIST(cfg)
		if err != nil {
			return nil, nil, err
		}
		reshape(fed, mean, cfg.K)
		return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}, nil
	case "rec":
		cfg := data.DefaultRecommendConfig()
		cfg.Users, cfg.Seed = federationSize, seed
		mean := cfg.MeanSamples
		cfg.MeanSamples, cfg.StdSamples = mean*maxNodeShape, 0
		fed, err := data.GenerateRecommend(cfg)
		if err != nil {
			return nil, nil, err
		}
		reshape(fed, mean, cfg.K)
		m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 16, fed.NumClasses}, L2: 0.01})
		return fed, m, err
	}
	return nil, nil, fmt.Errorf("workload %s: dataset %q has no federation", w.name, w.dataset)
}
