// Package topoquery implements the topographic querying layer of Section
// 3.1 over distributed in-network storage: once the identification and
// labeling round has run, each level-k leader holds the boundary summary of
// its block, and queries ("count the regions of interest", "enumerate
// regions in a range") are answered by combining those stored summaries —
// decoupled from the data-gathering process, exactly as the paper
// prescribes.
//
// Naively summing per-leader region counts over-counts regions that span
// block boundaries; the stored summaries' open-boundary information is what
// makes the distributed count exact, and the QueryCost accounting shows
// what that exactness costs in communication.
package topoquery

import (
	"fmt"
	"sort"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
)

// Store is the distributed storage state after one labeling round: the
// level-k summary held by each level-k leader, for every k.
type Store struct {
	Hier *varch.Hierarchy
	// byLevel[k] maps a level-k leader coordinate to its block summary.
	byLevel []map[geom.Coord]*regions.Summary
}

// BuildStore computes the summaries every leader would hold after a
// labeling round over m. (regions.LeafBlock is provably equal to the merge
// the synthesized program performs — see the regions tests — so the store
// can be built directly without replaying the protocol.)
func BuildStore(h *varch.Hierarchy, m *field.BinaryMap) *Store {
	if m.Grid != h.Grid {
		panic("topoquery: map grid and hierarchy grid differ")
	}
	s := &Store{Hier: h, byLevel: make([]map[geom.Coord]*regions.Summary, h.Levels+1)}
	for level := 0; level <= h.Levels; level++ {
		s.byLevel[level] = make(map[geom.Coord]*regions.Summary)
		size := h.BlockSize(level)
		for _, leader := range h.Leaders(level) {
			s.byLevel[level][leader] = regions.LeafBlock(m, leader.Col, leader.Row, size, size)
		}
	}
	return s
}

// Summary returns the stored summary of the level-k leader at c (a clone;
// callers may merge it freely).
func (s *Store) Summary(leader geom.Coord, level int) *regions.Summary {
	sum, ok := s.byLevel[level][leader]
	if !ok {
		panic(fmt.Sprintf("topoquery: %v is not a level-%d leader", leader, level))
	}
	return sum.Clone()
}

// QueryCost is the communication cost of answering one query from a sink
// node under the uniform cost model: a 1-unit request to each storage node
// and a summary-sized response back, all in parallel; plus the sink-side
// merge compute.
type QueryCost struct {
	Energy   cost.Energy
	Latency  sim.Time
	Contacts int // storage nodes consulted
}

// charge accumulates the round-trip cost for consulting the storage node at
// leader from sink with a response of respSize units.
func (qc *QueryCost) charge(model *cost.Model, sink, leader geom.Coord, respSize int64) {
	hops := int64(sink.Manhattan(leader))
	qc.Contacts++
	if hops == 0 {
		return
	}
	perUnit := model.EnergyOf(cost.Tx, 1) + model.EnergyOf(cost.Rx, 1)
	qc.Energy += cost.Energy(hops) * perUnit * cost.Energy(1+respSize)
	rt := sim.Time(hops) * sim.Time(model.TxLatency(1)+model.TxLatency(respSize))
	if rt > qc.Latency {
		qc.Latency = rt
	}
}

// CountRegions answers "how many feature regions are there?" by consulting
// every level-k leader from sink and merging their stored summaries. The
// count is exact at any level; lower levels contact more nodes with smaller
// responses, higher levels fewer nodes with more aggregated data — the
// trade E9's sibling table quantifies.
func (s *Store) CountRegions(level int, sink geom.Coord, model *cost.Model) (int, QueryCost) {
	var qc QueryCost
	var acc *regions.Summary
	for _, leader := range s.Hier.Leaders(level) {
		sum := s.Summary(leader, level)
		qc.charge(model, sink, leader, sum.Size())
		if acc == nil {
			acc = sum
		} else {
			acc.Merge(sum)
		}
		qc.Energy += model.EnergyOf(cost.Compute, sum.Size())
	}
	return acc.Count(), qc
}

// RegionInfo is one region as reported by enumeration queries.
type RegionInfo struct {
	Label int
	Cells int
	Box   regions.BBox
}

// EnumerateRegions returns all regions with at least minCells cells,
// largest first (ties by label), by merging the level-k summaries.
func (s *Store) EnumerateRegions(level, minCells int, sink geom.Coord, model *cost.Model) ([]RegionInfo, QueryCost) {
	var qc QueryCost
	var acc *regions.Summary
	for _, leader := range s.Hier.Leaders(level) {
		sum := s.Summary(leader, level)
		qc.charge(model, sink, leader, sum.Size())
		qc.Energy += model.EnergyOf(cost.Compute, sum.Size())
		if acc == nil {
			acc = sum
		} else {
			acc.Merge(sum)
		}
	}
	var out []RegionInfo
	for _, r := range acc.Regions() {
		if r.Cells >= minCells {
			out = append(out, RegionInfo{Label: r.Label, Cells: r.Cells, Box: r.Box})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cells != out[j].Cells {
			return out[i].Cells > out[j].Cells
		}
		return out[i].Label < out[j].Label
	})
	return out, qc
}

// CountInBox counts regions whose bounding box intersects box, a cheap
// range query that consults only the leaders whose blocks intersect box.
// Bounding boxes over-approximate region extents, so the result is an
// upper bound on regions truly intersecting the box (exact for rectangular
// regions); the doc for E-series query experiments records this.
func (s *Store) CountInBox(level int, box regions.BBox, sink geom.Coord, model *cost.Model) (int, QueryCost) {
	var qc QueryCost
	var acc *regions.Summary
	size := s.Hier.BlockSize(level)
	for _, leader := range s.Hier.Leaders(level) {
		blockBox := regions.BBox{
			MinCol: leader.Col, MinRow: leader.Row,
			MaxCol: leader.Col + size - 1, MaxRow: leader.Row + size - 1,
		}
		if !boxesIntersect(blockBox, box) {
			continue
		}
		sum := s.Summary(leader, level)
		qc.charge(model, sink, leader, sum.Size())
		qc.Energy += model.EnergyOf(cost.Compute, sum.Size())
		if acc == nil {
			acc = sum
		} else {
			acc.Merge(sum)
		}
	}
	if acc == nil {
		return 0, qc
	}
	count := 0
	for _, r := range acc.Regions() {
		if boxesIntersect(r.Box, box) {
			count++
		}
	}
	return count, qc
}

func boxesIntersect(a, b regions.BBox) bool {
	return a.MinCol <= b.MaxCol && b.MinCol <= a.MaxCol &&
		a.MinRow <= b.MaxRow && b.MinRow <= a.MaxRow
}
