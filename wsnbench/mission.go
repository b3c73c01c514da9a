package main

import (
	"fmt"
	"maps"
	"math/rand"
	"time"

	"wsnva/internal/binding"
	"wsnva/internal/churn"
	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/emul"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/radio"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
	"wsnva/internal/vtopo"
)

// missionWL is the `mission` and `churn` workloads: each op is the whole
// static physical mission `wsnsim -engine physical` runs for one seed,
// and on `churn` a Poisson sleep/wake mission on top of it. An op's seed
// follows wsnsim's streams: the deployment draws from seed, the medium
// from seed+1, the blobs field from seed+2, the churn schedule from
// seed+4.
type missionWL struct {
	label         string
	side, density int
	listLen       int
	opCost, limit time.Duration
	// churnRate > 0 makes every op a churn mission (Machine.RunChurn)
	// instead of one labeling round.
	churnRate float64
	ops       []missionOp
}

// missionOp is one list item: its seed and the inputs derived from it.
type missionOp struct {
	seed  int64
	fmap  *field.BinaryMap
	truth int
	sched churn.Schedule
}

// missionOut is what one op produced.
type missionOut struct {
	err       error
	complete  bool
	bres      *binding.Result
	nw        *deploy.Network
	regions   int
	recovered bool
}

// churnHorizon matches wsnsim's physical churn horizon.
const churnHorizon = sim.Time(400)

// newMission: side 32, density 10 (n = 10,240). The set-up chain does
// almost all of the work; repair and serve code does none.
func newMission() *missionWL {
	return &missionWL{label: "mission", side: 32, density: 10, listLen: 10,
		opCost: 315 * time.Millisecond, limit: 1000 * time.Millisecond}
}

// newChurn: side 16, density 8 (n = 2,048), then a Poisson sleep/wake
// mission with a labeling round every 4 batches.
func newChurn() *missionWL {
	return &missionWL{label: "churn", side: 16, density: 8, listLen: 12,
		opCost: 260 * time.Millisecond, limit: 1000 * time.Millisecond, churnRate: 0.5}
}

func (w *missionWL) name() string           { return w.label }
func (w *missionWL) size() int              { return len(w.ops) }
func (w *missionWL) nominal() time.Duration { return w.opCost }
func (w *missionWL) slo() time.Duration     { return w.limit }
func (w *missionWL) oracle(counters) error  { return nil }

func (w *missionWL) plan(seed int64, _ *recorder, _ counters) error {
	rng := rand.New(rand.NewSource(seed))
	w.ops = make([]missionOp, w.listLen)
	for i := range w.ops {
		s := rng.Int63n(1 << 31)
		grid := geom.NewSquareGrid(w.side, float64(w.side)*10)
		phen := field.RandomBlobs(4, grid.Terrain,
			grid.Terrain.Width()/10, grid.Terrain.Width()/6, rand.New(rand.NewSource(s+2)))
		m := field.Threshold(phen, grid, 0.5, 0)
		op := missionOp{seed: s, fmap: m, truth: regions.Label(m).Count}
		if w.churnRate > 0 {
			op.sched = poissonPlan(w.side*w.side*w.density, w.churnRate, s+4)
		}
		w.ops[i] = op
	}
	return nil
}

// poissonPlan is wsnsim's -churn-rate schedule: a Poisson sleep/wake
// process over the horizon, then a wake-up of every radio left asleep
// so the final labeling round measures the repaired network.
func poissonPlan(n int, rate float64, seed int64) churn.Schedule {
	sched := churn.Poisson(n, rate, churnHorizon, seed)
	down := map[int]bool{}
	for _, ev := range sched {
		down[ev.Node] = ev.Op.Down()
	}
	var wake []int
	for node := 0; node < n; node++ {
		if down[node] {
			wake = append(wake, node)
		}
	}
	if len(wake) > 0 {
		sched = churn.Merge(sched, churn.Arrivals(churnHorizon+1, wake...))
	}
	return sched
}

func (w *missionWL) do(i, op int, rec *recorder, c counters) (time.Duration, outcome) {
	spec := w.ops[i]
	grid := spec.fmap.Grid
	n := w.side * w.side * w.density
	out := &missionOut{}
	t0 := time.Now()
	root := rec.begin(w.label, op, -1)
	defer rec.end(root)

	s := rec.begin("deploy.generate", op, root)
	nw, attempts, err := deploy.Generate(n, grid, grid.CellSide()*1.2, deploy.UniformRandom{},
		rand.New(rand.NewSource(spec.seed)), 100)
	rec.end(s)
	if err != nil {
		out.err = err
		return time.Since(t0), out
	}
	out.nw = nw
	c.add("deploy.attempts", float64(attempts))
	c.add("deploy.nodes", float64(n))

	s = rec.begin("emul.disseminate", op, root)
	inj, err := emul.Disseminate(nw, emul.DisseminateConfig{})
	rec.end(s)
	if err != nil {
		out.err = err
		return time.Since(t0), out
	}
	c.add("emul.inject_deliveries", float64(inj.Delivered))

	s = rec.begin("vtopo.setup", op, root)
	ledger := cost.NewLedger(cost.NewUniform(), nw.N())
	med := radio.NewMedium(nw, sim.New(), ledger, rand.New(rand.NewSource(spec.seed+1)), radio.Config{})
	proto := vtopo.New(med, grid)
	em := proto.Run()
	rec.end(s)
	out.complete = em.Complete
	kern := med.Kernel()
	fired := kern.Fired()
	_, delivered, _ := med.Stats()
	c.add("vtopo.broadcasts", float64(em.Broadcasts))
	c.add("sim.vtopo.events", float64(fired))
	c.add("vtopo.deliveries", float64(delivered))

	s = rec.begin("binding.bind", op, root)
	bnd, bres, err := binding.Bind(med, grid, binding.MinDistance{Network: nw, Grid: grid})
	rec.end(s)
	if err != nil {
		out.err = err
		return time.Since(t0), out
	}
	// Churn failover rewrites the leader map in place, so verify keeps
	// the map the election produced.
	snap := *bres
	snap.Leaders = maps.Clone(bres.Leaders)
	out.bres = &snap
	c.add("binding.broadcasts", float64(bres.Broadcasts))
	c.add("sim.bind.events", float64(kern.Fired()-fired))
	fired = kern.Fired()

	s = rec.begin("emul.new", op, root)
	mach, err := emul.New(varch.MustHierarchy(grid), proto, bnd, med)
	rec.end(s)
	if err != nil {
		out.err = err
		return time.Since(t0), out
	}

	var final *emul.Result
	if w.churnRate > 0 {
		s = rec.begin("emul.churn", op, root)
		res, err := mach.RunChurn(emul.ChurnConfig{Schedule: spec.sched, Map: spec.fmap, RoundEvery: 4})
		rec.end(s)
		if err != nil {
			out.err = err
			return time.Since(t0), out
		}
		out.recovered = res.AllRecovered
		final = res.Final
		c.add("vtopo.repair_msgs", float64(res.RepairMsgs))
		c.add("emul.rounds", float64(res.Rounds))
		c.add("churn.disturbances", float64(len(res.Disturbances)))
		c.add("sim.churn.events", float64(kern.Fired()-fired))
	} else {
		s = rec.begin("emul.label", op, root)
		res, err := mach.RunLabeling(spec.fmap)
		rec.end(s)
		if err != nil {
			out.err = err
			return time.Since(t0), out
		}
		out.recovered = true
		final = res
		c.add("sim.label.events", float64(kern.Fired()-fired))
	}
	wall := time.Since(t0)
	_, delivered, _ = med.Stats()
	c.add("radio.delivered", float64(delivered))
	if final != nil {
		c.add("emul.rule_firings", float64(final.RuleFirings))
		c.add("emul.phys_hops", float64(final.PhysHops))
		if final.Final != nil {
			out.regions = final.Final.Count()
		}
	}
	return wall, out
}

func (w *missionWL) verify(i int, o outcome) error {
	out := o.(*missionOut)
	switch {
	case out.err != nil:
		return out.err
	case !out.complete:
		return fmt.Errorf("vtopo emulation incomplete")
	case !out.recovered:
		return fmt.Errorf("churn mission did not recover from every disturbance")
	case out.regions != w.ops[i].truth:
		return fmt.Errorf("labeled %d regions, ground truth %d", out.regions, w.ops[i].truth)
	}
	return out.bres.Verify(out.nw, w.ops[i].fmap.Grid)
}

func (w *missionWL) layers(rep *report, lt layerTimes, c counters) {
	ops := float64(lt.roots)
	ns := func(span, count string) float64 {
		if c[count] == 0 {
			return 0
		}
		return lt.self[span] / c[count]
	}
	rep.set("deploy.generate_ms", lt.selfMs("deploy.generate"), "ms")
	rep.set("deploy.attempts", c["deploy.attempts"]/ops, "count")
	rep.set("deploy.ns_per_node", ns("deploy.generate", "deploy.nodes"), "ns")
	rep.set("emul.disseminate_ms", lt.selfMs("emul.disseminate"), "ms")
	rep.set("emul.disseminate_ns_per_delivery", ns("emul.disseminate", "emul.inject_deliveries"), "ns")
	rep.set("vtopo.setup_ms", lt.selfMs("vtopo.setup"), "ms")
	rep.set("vtopo.broadcasts", c["vtopo.broadcasts"]/ops, "count")
	rep.set("vtopo.ns_per_delivery", ns("vtopo.setup", "vtopo.deliveries"), "ns")
	rep.set("vtopo.repair_msgs", c["vtopo.repair_msgs"]/ops, "count")
	rep.set("binding.bind_ms", lt.selfMs("binding.bind"), "ms")
	rep.set("binding.broadcasts", c["binding.broadcasts"]/ops, "count")
	rep.set("emul.new_ms", lt.selfMs("emul.new"), "ms")
	rep.set("emul.label_ms", lt.selfMs("emul.label"), "ms")
	rep.set("emul.rule_firings", c["emul.rule_firings"]/ops, "count")
	rep.set("emul.phys_hops", c["emul.phys_hops"]/ops, "count")
	rep.set("emul.churn_ms", lt.selfMs("emul.churn"), "ms")
	rep.set("emul.rounds", c["emul.rounds"]/ops, "count")
	rep.set("churn.disturbances", c["churn.disturbances"]/ops, "count")
	rep.set("emul.churn_ns_per_event", ns("emul.churn", "sim.churn.events"), "ns")
	for _, ph := range []struct{ phase, span string }{
		{"vtopo", "vtopo.setup"}, {"bind", "binding.bind"}, {"label", "emul.label"}, {"churn", "emul.churn"},
	} {
		rep.set("sim."+ph.phase+".events", c["sim."+ph.phase+".events"]/ops, "count")
		rep.set("sim."+ph.phase+".ns_per_event", ns(ph.span, "sim."+ph.phase+".events"), "ns")
	}
	rep.set("radio.delivered", c["radio.delivered"]/ops, "count")
}
