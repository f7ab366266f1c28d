package experiments

import (
	"fmt"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/par"
	"github.com/edgeai/fedml/internal/tensor"
)

// Every figure of §VI has one form: train a few arms with core.Train, then
// evaluate each arm's θ. runArms is where the training happens for every
// experiment built on core.Train: it fans the arms out on the worker pool
// into per-arm slots, runs the two probes an arm may ask for, and returns
// each arm's federation, model, trained θ, traffic and curves in arm order,
// so an experiment's output is bit-identical for every worker count. The
// experiment then evaluates the θs one arm after another, each evaluation
// on the whole pool.

// arm is one training run of an experiment.
type arm struct {
	name string
	cfg  core.Config
	// build makes the arm's federation and model inside the worker, and may
	// finish cfg from them (a sync mask resolved against the model, say).
	// An arm that builds its own federation from the shared seed stays
	// bit-identical for every worker count; arms may also share one that is
	// read-only (shared).
	build func(cfg *core.Config) (*data.Federation, nn.Model, error)
	// objective, when set, tracks G(θ) after every round. Each probe is
	// the run's OnRound, so an arm asks for at most one.
	objective *objectiveProbe
	// accuracy, when set, tracks the mean adapted target accuracy after
	// every round.
	accuracy *accuracyProbe
}

// objectiveProbe tracks the meta-objective G(θ) − offset after every round.
type objectiveProbe struct {
	alpha float64
	// view caps the source nodes G is evaluated on (trackingView).
	view int
	// offset, when set, is subtracted from every value: G(θ*) for a
	// convergence-error curve. An error it returns degrades to the run's
	// warning; the offset it returns alongside is used as is.
	offset func(m nn.Model, fed *data.Federation) (float64, error)
}

// accuracyProbe tracks the mean target accuracy after steps adaptation steps
// at rate alpha, joined to the traffic and energy billed up to that round.
type accuracyProbe struct {
	alpha float64
	steps int
}

// armRun is one trained arm.
type armRun struct {
	fed   *data.Federation
	model nn.Model
	theta tensor.Vec
	comm  core.CommStats
	// objective is the objective probe's G(θ) − offset by iteration, named
	// after the arm; warning is its offset's failure, if any.
	objective *eval.Series
	warning   string
	// accVsKiB and accVsJ are the accuracy probe's curves, named after the
	// arm: mean adapted target accuracy (y) against cumulative wire KiB and,
	// when cfg.Energy is set, cumulative modeled fleet joules (x, in the
	// Series iteration slot).
	accVsKiB, accVsJ *eval.Series
}

// runArms trains every arm on the worker pool. Errors read "<exp> <arm>: …".
func runArms(exp string, arms []arm) ([]armRun, error) {
	// The arm grid is the coarser, better-balanced grain: with more than one
	// arm the probes evaluate serially, since nesting pools would
	// oversubscribe. Every evaluation is bit-identical for every worker
	// count, so this only moves time.
	workers := 1
	if len(arms) == 1 {
		workers = 0
	}
	runs := make([]armRun, len(arms))
	err := par.ForEachErr(0, len(arms), func(i int) error {
		if err := arms[i].run(&runs[i], workers); err != nil {
			return fmt.Errorf("%s %s: %w", exp, arms[i].name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// run builds and trains the arm into r.
func (a *arm) run(r *armRun, workers int) error {
	c := a.cfg
	fed, m, err := a.build(&c)
	if err != nil {
		return err
	}
	r.fed, r.model = fed, m
	if p := a.objective; p != nil {
		var offset float64
		if p.offset != nil {
			if offset, err = p.offset(m, fed); err != nil {
				r.warning = fmt.Sprintf("%s: %v", a.name, err)
			}
		}
		view := trackingView(fed, p.view)
		r.objective = &eval.Series{Name: a.name}
		c.OnRound = func(_, iter int, theta tensor.Vec) {
			r.objective.Add(iter, eval.GlobalMetaObjectiveN(m, view, p.alpha, theta, workers)-offset)
		}
	}
	var rec *obs.Recorder
	var accByIter map[int]float64
	if p := a.accuracy; p != nil {
		rec = obs.NewRecorder()
		accByIter = map[int]float64{}
		c.Observer = rec
		c.OnRound = func(_, iter int, theta tensor.Vec) {
			accs := eval.FinalAccuraciesN(m, theta, fed.Targets, p.alpha, p.steps, workers)
			var s float64
			for _, acc := range accs {
				s += acc
			}
			accByIter[iter] = s / float64(len(accs))
		}
	}
	res, err := core.Train(m, fed, nil, c)
	if err != nil {
		return err
	}
	r.theta, r.comm = res.Theta, res.Comm
	if rec != nil {
		// Join the accuracy probe with the billed traffic and energy on the
		// shared iteration axis: accuracy as a function of what was spent.
		// Skipped rounds carried traffic but moved no θ, so they add no
		// point.
		var cumJ map[int]float64
		if c.Energy != nil {
			cumJ = joulesByRound(rec.Events(), *c.Energy, c.EnergyScale)
			r.accVsJ = &eval.Series{Name: a.name}
		}
		r.accVsKiB = &eval.Series{Name: a.name}
		for _, rd := range rec.Rounds() {
			acc, ok := accByIter[rd.Iter]
			if !ok {
				continue
			}
			r.accVsKiB.Add(int(rd.Cum.Bytes/1024), acc)
			if cumJ != nil {
				r.accVsJ.Add(int(cumJ[rd.Round]), acc)
			}
		}
	}
	return nil
}

// joulesByRound folds an event stream into cumulative fleet joules at each
// round boundary, pricing from the node's perspective: a broadcast or probe
// is received (rx), a delivered update was transmitted (tx) after t0 local
// iterations of compute. scale multiplies per-node costs (nil = 1).
func joulesByRound(events []obs.Event, em core.EnergyModel, scale []float64) map[int]float64 {
	nodeScale := func(i int) float64 {
		if scale == nil || i >= len(scale) {
			return 1
		}
		return scale[i]
	}
	cum := map[int]float64{}
	total := 0.0
	t0 := 0
	for _, e := range events {
		switch e.Type {
		case obs.TypeRoundStart:
			t0 = e.T0
		case obs.TypeBroadcast, obs.TypeProbe:
			total += nodeScale(e.Node) * em.RoundJoules(e.Bytes, 0, 0)
		case obs.TypeUpdate:
			total += nodeScale(e.Node) * em.RoundJoules(0, e.Bytes, t0)
		case obs.TypeRoundEnd, obs.TypeRoundSkip:
			cum[e.Round] = total
		}
	}
	return cum
}

// shared is the arm builder of arms that train on one read-only federation
// and model.
func shared(fed *data.Federation, m nn.Model) func(*core.Config) (*data.Federation, nn.Model, error) {
	return func(*core.Config) (*data.Federation, nn.Model, error) { return fed, m, nil }
}
