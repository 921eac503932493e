package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/nn"
)

// oracle recomputes answers serially from the public functions: edge.Deploy
// of the same checkpoint at the same device, Pipeline.Apply, then
// Probabilities. Batching, concurrency and the wire must not change a bit.
type oracle struct {
	pipe   *core.Pipeline
	device edge.Device
	users  []*user
	base   []*nn.Model
	tuned  map[[2]int]*nn.Model // (user, cluster) → fine-tuned deployment
	refs   map[refKey][]float64
}

type refKey struct {
	model     *nn.Model
	user, win int
}

func newOracle(pipe *core.Pipeline, device edge.Device, users []*user) *oracle {
	o := &oracle{pipe: pipe, device: device, users: users,
		tuned: map[[2]int]*nn.Model{}, refs: map[refKey][]float64{}}
	for k := range pipe.Models {
		o.base = append(o.base, edge.Deploy(pipe.ModelFor(k), device).Model)
	}
	return o
}

// tunedModel rebuilds a session's personalised model the way the
// fine-tune worker does: its labelled windows in arrival order, normalised,
// fine-tuned from the cluster checkpoint, deployed at the device.
func (o *oracle) tunedModel(lc *lifecycle) (*nn.Model, error) {
	key := [2]int{lc.user, lc.ftCluster}
	if m, ok := o.tuned[key]; ok {
		return m, nil
	}
	u := o.users[lc.user]
	samples := make([]nn.Sample, lc.labelled)
	for i := range samples {
		samples[i] = nn.Sample{X: o.pipe.Apply(u.windows[i].m), Y: u.windows[i].label}
	}
	m, err := o.pipe.FineTune(lc.ftCluster, samples)
	if err != nil {
		return nil, err
	}
	dep := edge.Deploy(m, o.device).Model
	o.tuned[key] = dep
	return dep, nil
}

func (o *oracle) ref(m *nn.Model, rp *reply) []float64 {
	key := refKey{model: m, user: rp.lc.user, win: rp.win}
	if p, ok := o.refs[key]; ok {
		return p
	}
	p := m.Probabilities(o.pipe.Apply(o.users[rp.lc.user].windows[rp.win].m))
	o.refs[key] = p
	return p
}

// oracleReport is the outcome of checking one run's answers.
type oracleReport struct {
	checked    int // answers compared bit for bit
	unverified int // well-formed personalised answers of re-assigned sessions
	mismatches []string
}

// check verifies every answer of a run. Enrolment answers must carry no
// probabilities; classified answers must be well-formed distributions and,
// where the serving model can be rebuilt, equal the serial reference. Each
// mismatch counts as a failed operation of the run.
func (o *oracle) check(res *runResult) oracleReport {
	var rep oracleReport
	bad := func(rp *reply, format string, args ...any) {
		rep.mismatches = append(rep.mismatches, fmt.Sprintf("user %d window %d: %s",
			o.users[rp.lc.user].id, rp.win, fmt.Sprintf(format, args...)))
	}
	classes := o.pipe.Cfg.Model.Classes
	for _, rp := range res.replies {
		if len(rp.ans.probs) == 0 {
			if rp.served >= 0 && !rp.assignedNow {
				bad(rp, "assigned session answered without probabilities")
			}
			continue
		}
		if rp.served < 0 || rp.served >= len(o.base) {
			bad(rp, "classified answer without a valid cluster (%d)", rp.served)
			continue
		}
		if err := wellFormed(rp.ans.probs, classes); err != nil {
			bad(rp, "%v", err)
			continue
		}
		var m *nn.Model
		switch {
		case !rp.ans.personalized:
			m = o.base[rp.served]
		case !rp.lc.reassigned && rp.lc.labelled > 0:
			tm, err := o.tunedModel(rp.lc)
			if err != nil {
				bad(rp, "rebuild personalised model: %v", err)
				continue
			}
			m = tm
		default:
			rep.unverified++
			continue
		}
		want := o.ref(m, rp)
		rep.checked++
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(rp.ans.probs[i]) {
				bad(rp, "probs %v, serial reference %v (personalized=%v cluster=%d)",
					rp.ans.probs, want, rp.ans.personalized, rp.served)
				break
			}
		}
	}
	res.failed += len(rep.mismatches)
	return rep
}

func wellFormed(p []float64, classes int) error {
	if len(p) != classes {
		return fmt.Errorf("%d probabilities, want %d", len(p), classes)
	}
	sum := 0.0
	for _, v := range p {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("probability %v out of [0,1]", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("probabilities sum to %v", sum)
	}
	return nil
}

func argmax(p []float64) int {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}
