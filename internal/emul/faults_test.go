package emul

import (
	"math/rand"
	"testing"

	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
)

func testMap(g *geom.Grid, seed int64) *field.BinaryMap {
	return field.Threshold(field.RandomBlobs(2, g.Terrain, 6, 10, rand.New(rand.NewSource(seed))), g, 0.5, 0)
}

func TestKillNonLeaderStillLabels(t *testing.T) {
	// Losing a relay that holds no virtual process must not change the
	// labeling result: the cell tree rebuilds around it and incremental
	// repair re-teaches the inter-cell chains that used it.
	m, h, _, nw := stack(t, 4, 8, 1)
	before := copyLeaders(m.bnd.Leaders)
	leaders := make(map[int]bool, len(m.bnd.Leaders))
	for _, id := range m.bnd.Leaders {
		leaders[id] = true
	}
	victim := -1
	for _, id := range nw.CellMembers(h.Grid)[0] {
		if !leaders[id] {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("cell 0 has no non-leader member")
	}
	m.Kill(victim)
	m.proto.RepairIncremental()
	fmap := testMap(h.Grid, 9)
	res, err := m.RunLabeling(fmap)
	if err != nil {
		t.Fatal(err)
	}
	if truth := regions.Label(fmap); res.Final.Count() != truth.Count {
		t.Errorf("count %d, truth %d", res.Final.Count(), truth.Count)
	}
	if n := failovers(before, m.bnd.Leaders); n != 0 {
		t.Errorf("failovers %d for a non-leader kill, want 0", n)
	}
}

func TestKillLeaderFailsOverAndLabels(t *testing.T) {
	// Killing a cell's elected executor promotes the next alive member; the
	// virtual process migrates with the binding and the round still produces
	// the ground-truth labeling.
	m, h, _, _ := stack(t, 4, 8, 2)
	cell := geom.Coord{Col: 1, Row: 1}
	old := m.bnd.Leaders[cell]
	before := copyLeaders(m.bnd.Leaders)
	m.Kill(old)
	m.proto.RepairIncremental()
	if n := failovers(before, m.bnd.Leaders); n != 1 {
		t.Fatalf("failovers %d, want 1", n)
	}
	now := m.bnd.Leaders[cell]
	if now == old || !m.med.Alive(now) {
		t.Fatalf("leader of %v is %d (old %d), not an alive replacement", cell, now, old)
	}
	fmap := testMap(h.Grid, 11)
	res, err := m.RunLabeling(fmap)
	if err != nil {
		t.Fatal(err)
	}
	if truth := regions.Label(fmap); res.Final.Count() != truth.Count {
		t.Errorf("count %d, truth %d", res.Final.Count(), truth.Count)
	}
}

func TestKillWholeCellStallsRound(t *testing.T) {
	// Killing every member of a cell kills its virtual process outright: no
	// candidate is left to promote, traffic for the cell is dropped, and the
	// quorum protocol above it stalls — the failure mode the DES fault
	// driver's watchdogs exist to bound.
	m, h, _, nw := stack(t, 4, 8, 3)
	cell := geom.Coord{Col: 1, Row: 0}
	for _, id := range nw.CellMembers(h.Grid)[h.Grid.Index(cell)] {
		m.Kill(id)
	}
	if m.med.Alive(m.bnd.Leaders[cell]) {
		t.Fatal("a fully-killed cell still has an alive bound leader")
	}
	if _, err := m.RunLabeling(testMap(h.Grid, 13)); err == nil {
		t.Error("labeling completed despite a dead cell")
	}
}

func copyLeaders(l map[geom.Coord]int) map[geom.Coord]int {
	out := make(map[geom.Coord]int, len(l))
	for c, id := range l {
		out[c] = id
	}
	return out
}

// failovers counts the cells whose bound leader changed.
func failovers(before, after map[geom.Coord]int) int {
	n := 0
	for c, id := range before {
		if after[c] != id {
			n++
		}
	}
	return n
}
