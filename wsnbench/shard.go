package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"wsnva/internal/deploy"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/shard"
)

// Shape of the `shard` workload: E21's deployments (n = 8,000 on a
// √n-sided square with range 2, about 12 neighbours, connected) and a
// 16-flood hazard-free dissemination plus a side-64 labeling run, both
// on shardCount spatial shards driven by one worker. At GOMAXPROCS
// workers on a 2-vCPU host the window barriers amplify every stolen
// time slice (five-seed p50 spread 20%); one worker still runs the
// window, inbox and wake-batch sort code.
const (
	shardNodes  = 8000
	shardFloods = 16
	shardCount  = 4
	shardSide   = 64
	shardNets   = 4
	shardList   = 8
)

type shardWL struct {
	nets []*deploy.Network
	ops  []shardOp
	// ref holds each list item's Shards=1 checksums, traced run only.
	ref []shardSums
}

type shardOp struct {
	net     int
	origins []int
	fmap    *field.BinaryMap
	truth   int
}

type shardSums struct{ flood, label uint64 }

type shardOut struct {
	err     error
	reached []int64
	regions int
	sums    shardSums
}

func newShardWL() *shardWL { return &shardWL{} }

func (w *shardWL) name() string           { return "shard" }
func (w *shardWL) size() int              { return len(w.ops) }
func (w *shardWL) nominal() time.Duration { return 330 * time.Millisecond }
func (w *shardWL) slo() time.Duration     { return 1000 * time.Millisecond }

// plan builds shardNets connected deployments (E21's construction: the
// first connected placement in a seed sequence) and an op list pairing
// each with seed-drawn flood origins and a labeling field.
func (w *shardWL) plan(seed int64, rec *recorder, c counters) error {
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(shardNodes)
	terrain := geom.Rect{MaxX: side, MaxY: side}
	w.nets = make([]*deploy.Network, shardNets)
	for k := range w.nets {
		s := rec.begin("deploy.generate", -1, -1)
		for try := 1; w.nets[k] == nil; try++ {
			if try > 40 {
				return fmt.Errorf("no connected %d-node deployment in 40 placements", shardNodes)
			}
			nw := deploy.New(shardNodes, terrain, 2, deploy.UniformRandom{}, rand.New(rand.NewSource(rng.Int63())))
			if nw.Connected() {
				w.nets[k] = nw
				c.add("deploy.attempts", float64(try))
			}
		}
		rec.end(s)
		c.add("deploy.builds", 1)
	}
	w.ops = make([]shardOp, shardList)
	for i := range w.ops {
		perm := rng.Perm(shardNodes)[:shardFloods]
		grid := geom.NewSquareGrid(shardSide, float64(shardSide)*10)
		phen := field.RandomBlobs(4, grid.Terrain,
			grid.Terrain.Width()/10, grid.Terrain.Width()/6, rand.New(rand.NewSource(rng.Int63())))
		m := field.Threshold(phen, grid, 0.5, 0)
		w.ops[i] = shardOp{net: i % shardNets, origins: perm, fmap: m, truth: regions.Label(m).Count}
	}
	return nil
}

// floodConfig is list item o's dissemination on the given shard count.
func floodConfig(o shardOp, shards int) shard.Config {
	return shard.Config{Shards: shards, Workers: 1, Origins: o.origins, PktSize: 2}
}

func labelConfig(shards int) shard.LabelConfig {
	return shard.LabelConfig{Config: shard.Config{Shards: shards, Workers: 1}}
}

// oracle runs every list item once on the single-kernel engine
// (Shards = 1) so traced ops can compare checksums against it.
func (w *shardWL) oracle(c counters) error {
	w.ref = make([]shardSums, len(w.ops))
	for i, o := range w.ops {
		t0 := time.Now()
		fr, err := shard.Run(w.nets[o.net], floodConfig(o, 1))
		if err != nil {
			return fmt.Errorf("oracle flood: %w", err)
		}
		c.add("shard.oracle_flood_ns", float64(time.Since(t0).Nanoseconds()))
		c.add("shard.oracle_floods", 1)
		lr, err := shard.RunLabeling(o.fmap, labelConfig(1))
		if err != nil {
			return fmt.Errorf("oracle labeling: %w", err)
		}
		w.ref[i] = shardSums{fr.Checksum(), lr.Checksum()}
	}
	return nil
}

func (w *shardWL) do(i, op int, rec *recorder, c counters) (time.Duration, outcome) {
	o := w.ops[i]
	out := &shardOut{}
	t0 := time.Now()
	root := rec.begin("shard", op, -1)
	defer rec.end(root)

	s := rec.begin("shard.flood", op, root)
	fr, err := shard.Run(w.nets[o.net], floodConfig(o, shardCount))
	rec.end(s)
	if err != nil {
		out.err = err
		return time.Since(t0), out
	}
	s = rec.begin("shard.label", op, root)
	lr, err := shard.RunLabeling(o.fmap, labelConfig(shardCount))
	rec.end(s)
	wall := time.Since(t0)
	if err != nil {
		out.err = err
		return wall, out
	}
	out.reached = fr.Reached
	if lr.Final != nil {
		out.regions = lr.Final.Count()
	}
	if rec != nil {
		out.sums = shardSums{fr.Checksum(), lr.Checksum()}
	}
	c.add("shard.deliveries", float64(fr.Delivered))
	c.add("shard.msgs", float64(lr.Msgs))
	return wall, out
}

func (w *shardWL) verify(i int, o outcome) error {
	out := o.(*shardOut)
	if out.err != nil {
		return out.err
	}
	for j, r := range out.reached {
		if r != shardNodes-1 {
			return fmt.Errorf("flood %d reached %d of %d nodes", j, r, shardNodes-1)
		}
	}
	if out.regions != w.ops[i].truth {
		return fmt.Errorf("labeled %d regions, ground truth %d", out.regions, w.ops[i].truth)
	}
	if out.sums != (shardSums{}) && w.ref != nil && out.sums != w.ref[i] {
		return fmt.Errorf("checksums %016x/%016x differ from the Shards=1 oracle's %016x/%016x",
			out.sums.flood, out.sums.label, w.ref[i].flood, w.ref[i].label)
	}
	return nil
}

func (w *shardWL) layers(rep *report, lt layerTimes, c counters) {
	rep.set("deploy.generate_ms", lt.selfMs("deploy.generate"), "ms")
	rep.set("deploy.attempts", c.per("deploy.attempts", "deploy.builds"), "count")
	if n := c["deploy.builds"]; n > 0 {
		rep.set("deploy.ns_per_node", lt.self["deploy.generate"]/(n*shardNodes), "ns")
	}
	rep.set("shard.flood_ms", lt.selfMs("shard.flood"), "ms")
	rep.set("shard.label_ms", lt.selfMs("shard.label"), "ms")
	if c["shard.deliveries"] > 0 {
		rep.set("shard.flood_ns_per_delivery", lt.self["shard.flood"]/c["shard.deliveries"], "ns")
	}
	if c["shard.msgs"] > 0 {
		rep.set("shard.label_ns_per_msg", lt.self["shard.label"]/c["shard.msgs"], "ns")
	}
	oracleMs := c.per("shard.oracle_flood_ns", "shard.oracle_floods") / 1e6
	rep.set("shard.oracle_flood_ms", oracleMs, "ms")
	if f := lt.selfMs("shard.flood"); f > 0 {
		rep.set("shard.speedup", oracleMs/f, "x")
	}
}
