package shard

import (
	"fmt"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/parallel"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

// The labeling workload is the paper's E1-class application — the
// quad-tree homogeneous-region labeling of Figure 4 — run on the shard
// fabric under any (shards, workers) split. The node program is the one
// internal/synth synthesizes for every other engine, executed by the
// program host (progHost): each node's summary travels to its
// next-level leader as one hop-by-hop XY unicast, keyed by the
// originating node id (globally unique — one message per origin, ever).
// Hop latencies are the uniform model's TxLatency of the summary size,
// and wake batches arrive sorted by (From, Key), so leaders merge child
// summaries in an interleaving-independent order.

// LabelConfig parameterizes a sharded labeling run. The embedded
// Config supplies the execution strategy (Shards, Workers), the hazard
// knobs (Loss, Burst, Seed, Crashed, Crashes, Capacity, Deplete), and
// Trace/Model; its dissemination-only fields (Floods, Origins,
// PktSize) are ignored.
type LabelConfig struct {
	Config
}

// LabelResult is the outcome of a labeling run — like Result, a
// deterministic function of the map and workload alone, identical for
// every shard and worker count.
type LabelResult struct {
	Side   int
	Levels int
	// Final is the root's exfiltrated summary, nil if the run stalled
	// (loss or death broke the reduction tree — with one message per
	// node and no ARQ, any lost or orphaned summary is fatal).
	Final *regions.Summary
	// FinalAt is the exfiltration instant, -1 if stalled.
	FinalAt sim.Time
	// Completion is the timestamp of the last event fired.
	Completion sim.Time
	// Msgs counts summaries launched; Hops counts unicast transmissions
	// (launch hops included).
	Msgs int64
	Hops int64
	// Radio totals, as in Result.
	Sent      int64
	Delivered int64
	Dropped   int64
	Deaths    int
	// Suspends and Resumes count churn transitions actually applied.
	Suspends int64
	Resumes  int64
	Energy   []cost.Energy
	Total    cost.Energy
	Battery  []int64
	// Trace is the canonical JSONL trace (nil unless Trace).
	Trace []byte
}

// Checksum digests the result into one FNV-1a value (the labeled
// regions enter through the canonical trace plus the summary's shape
// counters).
func (r *LabelResult) Checksum() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (v >> shift) & 0xff
			h *= prime64
		}
	}
	mix(uint64(r.Side))
	mix(uint64(r.Levels))
	if r.Final != nil {
		mix(uint64(r.Final.Count()))
		mix(uint64(r.Final.CoveredCells()))
		mix(uint64(r.Final.TotalCells()))
	}
	mix(uint64(r.FinalAt))
	mix(uint64(r.Completion))
	mix(uint64(r.Msgs))
	mix(uint64(r.Hops))
	mix(uint64(r.Sent))
	mix(uint64(r.Delivered))
	mix(uint64(r.Dropped))
	mix(uint64(r.Deaths))
	// Gated as in Result.Checksum: churn-free digests are unchanged.
	if r.Suspends != 0 || r.Resumes != 0 {
		mix(uint64(r.Suspends))
		mix(uint64(r.Resumes))
	}
	for _, e := range r.Energy {
		mix(uint64(e))
	}
	for _, v := range r.Battery {
		mix(uint64(v))
	}
	for _, b := range r.Trace {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// labelDeployment materializes the virtual grid as a physical network:
// one node at every cell center, transmission range just over one cell
// side so the disk graph is exactly the oriented grid's 4-adjacency
// (diagonal neighbors sit √2 ≈ 1.414 cell sides away).
func labelDeployment(g *geom.Grid) *deploy.Network {
	pts := make([]geom.Point, g.N())
	for i := range pts {
		pts[i] = g.CellCenter(g.CoordOf(i))
	}
	return deploy.FromPoints(pts, g.Terrain, g.CellSide()*1.1)
}

// RunLabeling executes the quad-tree labeling workload over m's grid.
// Shards <= 1 runs the single-kernel oracle; larger counts run the
// conservative-window parallel engine. Both produce identical
// LabelResults — including byte-identical traces — for the same map
// and hazard configuration.
func RunLabeling(m *field.BinaryMap, cfg LabelConfig) (*LabelResult, error) {
	h, err := varch.NewHierarchy(m.Grid)
	if err != nil {
		return nil, err
	}
	n := m.Grid.N()
	model := cfg.Model
	if model == nil {
		model = cost.NewUniform()
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Crashed != nil && len(cfg.Crashed) != n {
		return nil, fmt.Errorf("shard: crash mask covers %d nodes, grid has %d", len(cfg.Crashed), n)
	}
	hz, err := buildHazards(n, &cfg.Config)
	if err != nil {
		return nil, err
	}
	nw := labelDeployment(m.Grid)
	st := NewState(nw)
	run := &hostRun{h: h, spec: synth.LabelingProgram(synth.Config{Hier: h, Sense: synth.SenseFromMap(m)}),
		insts: make([]*program.Instance, n), finalAt: -1}
	defer func() {
		// The result keeps only summaries, which outlive their instances.
		for _, inst := range run.insts {
			inst.Release()
		}
	}()
	traceCap := 0
	if cfg.Trace {
		// Every unicast hop emits a Tx plus one Rx-or-Drop; total hops
		// are bounded by 3n (each level-k sender travels < 2^(k+1) hops
		// and sender counts shrink geometrically), plus one Death and
		// one Deplete per node and one Sleep or Wake per churn entry.
		traceCap = 8*n + len(cfg.Churn) + 64
	}
	var apps []*progHost
	mk := func(int) app {
		a := &progHost{hostRun: run}
		apps = append(apps, a)
		return a
	}
	var rs runStats
	if cfg.Shards <= 1 {
		rs = execute(nw, st, model, nil, nil, mk, hz, cfg.Crashed, traceCap)
	} else {
		part := NewPartition(nw, cfg.Shards)
		pool := parallel.New(cfg.Workers)
		rs = execute(nw, st, model, part, pool, mk, hz, cfg.Crashed, traceCap)
	}
	if rs.lost > 0 {
		return nil, fmt.Errorf("shard: trace ring overflowed, %d events lost", rs.lost)
	}
	res := &LabelResult{
		Side:       m.Grid.Cols,
		Levels:     h.Levels,
		FinalAt:    run.finalAt,
		Completion: rs.completion,
		Sent:       rs.sent,
		Delivered:  rs.delivered,
		Dropped:    rs.dropped,
		Deaths:     st.Deaths(),
		Suspends:   rs.suspends,
		Resumes:    rs.resumes,
		Energy:     make([]cost.Energy, n),
		Battery:    st.Battery,
	}
	res.Final, _ = run.final.(*regions.Summary)
	for _, a := range apps {
		res.Msgs += a.msgs
		res.Hops += a.hops
	}
	for i := range res.Energy {
		e := rs.ledger.Energy(i)
		res.Energy[i] = e
		res.Total += e
		st.Battery[i] = int64(cfg.Capacity) - int64(e)
	}
	if cfg.Trace {
		if res.Trace, err = encodeCanonical(rs.events); err != nil {
			return nil, err
		}
	}
	return res, nil
}
