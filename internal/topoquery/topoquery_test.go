package topoquery

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/varch"
)

func store8(t *testing.T, seed int64) (*Store, *field.BinaryMap) {
	t.Helper()
	g := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.RandomBlobs(4, g.Terrain, 0.8, 1.6, rand.New(rand.NewSource(seed))), g, 0.5, 0)
	return BuildStore(varch.MustHierarchy(g), m), m
}

func TestCountRegionsExactAtEveryLevel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st, m := store8(t, seed)
		truth := regions.Label(m).Count
		for level := 0; level <= st.Hier.Levels; level++ {
			got, qc := st.CountRegions(level, geom.Coord{}, cost.NewUniform())
			if got != truth {
				t.Errorf("seed %d level %d: count %d, truth %d", seed, level, got, truth)
			}
			wantContacts := (8 >> level) * (8 >> level)
			if qc.Contacts != wantContacts {
				t.Errorf("level %d: contacted %d leaders, want %d", level, qc.Contacts, wantContacts)
			}
		}
	}
}

func TestQueryCostTradeoffAcrossLevels(t *testing.T) {
	st, _ := store8(t, 3)
	model := cost.NewUniform()
	sink := geom.Coord{}
	_, low := st.CountRegions(0, sink, model)
	_, high := st.CountRegions(st.Hier.Levels, sink, model)
	if high.Contacts >= low.Contacts {
		t.Error("higher levels should contact fewer nodes")
	}
	// Top level stores everything at the root == sink: zero communication
	// latency (only the sink-side merge compute remains).
	if high.Latency != 0 {
		t.Errorf("root-level query from the root should need no communication, got %+v", high)
	}
	if high.Energy >= low.Energy {
		t.Errorf("root-level query energy %d should undercut level-0 %d", high.Energy, low.Energy)
	}
	if low.Energy <= 0 {
		t.Error("level-0 query must cost communication")
	}
}

func TestStoreSummariesMatchDirectLabeling(t *testing.T) {
	st, m := store8(t, 7)
	// Level-3 (root) summary equals whole-grid labeling.
	root := st.Summary(geom.Coord{}, 3)
	whole := regions.LeafBlock(m, 0, 0, 8, 8)
	if !root.Equal(whole) {
		t.Error("root store summary differs from direct labeling")
	}
	// Merging the four level-2 summaries equals the root summary too.
	var acc *regions.Summary
	for _, leader := range st.Hier.Leaders(2) {
		s := st.Summary(leader, 2)
		if acc == nil {
			acc = s
		} else {
			acc.Merge(s)
		}
	}
	if !acc.Equal(whole) {
		t.Error("merged level-2 stores differ from direct labeling")
	}
}

func TestSummaryReturnsClones(t *testing.T) {
	st, _ := store8(t, 9)
	a := st.Summary(geom.Coord{}, 1)
	b := st.Summary(geom.Coord{Col: 2, Row: 0}, 1)
	a.Merge(b) // must not corrupt the store
	c := st.Summary(geom.Coord{}, 1)
	if c.CoveredCells() != 4 {
		t.Error("store summary was mutated by a query merge")
	}
}

func TestEnumerateRegions(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Parse(g,
		"###.....",
		"###.....",
		"........",
		"....##..",
		"....##..",
		"........",
		"#.......",
		"........",
	)
	st := BuildStore(varch.MustHierarchy(g), m)
	all, _ := st.EnumerateRegions(2, 1, geom.Coord{}, cost.NewUniform())
	if len(all) != 3 {
		t.Fatalf("found %d regions, want 3", len(all))
	}
	if all[0].Cells != 6 || all[1].Cells != 4 || all[2].Cells != 1 {
		t.Errorf("sizes = %d,%d,%d, want 6,4,1", all[0].Cells, all[1].Cells, all[2].Cells)
	}
	// The 6-cell region's bbox spans cols 0-2, rows 0-1.
	if all[0].Box != (regions.BBox{MinCol: 0, MinRow: 0, MaxCol: 2, MaxRow: 1}) {
		t.Errorf("bbox = %+v", all[0].Box)
	}
	big, _ := st.EnumerateRegions(2, 4, geom.Coord{}, cost.NewUniform())
	if len(big) != 2 {
		t.Errorf("minCells=4 should keep 2 regions, got %d", len(big))
	}
}

func TestCountInBox(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Parse(g,
		"##......",
		"##......",
		"........",
		"........",
		"........",
		"........",
		"......##",
		"......##",
	)
	st := BuildStore(varch.MustHierarchy(g), m)
	model := cost.NewUniform()
	nw, qcNW := st.CountInBox(1, regions.BBox{MinCol: 0, MinRow: 0, MaxCol: 3, MaxRow: 3}, geom.Coord{}, model)
	if nw != 1 {
		t.Errorf("NW box count = %d, want 1", nw)
	}
	all, _ := st.CountInBox(1, regions.BBox{MinCol: 0, MinRow: 0, MaxCol: 7, MaxRow: 7}, geom.Coord{}, model)
	if all != 2 {
		t.Errorf("full box count = %d, want 2", all)
	}
	empty, qcEmpty := st.CountInBox(1, regions.BBox{MinCol: 2, MinRow: 2, MaxCol: 5, MaxRow: 5}, geom.Coord{}, model)
	if empty != 0 {
		t.Errorf("middle box count = %d, want 0", empty)
	}
	// Pruning: the NW query must consult fewer leaders than the full grid
	// holds at level 1.
	if qcNW.Contacts >= 16 {
		t.Errorf("NW box consulted %d leaders; pruning failed", qcNW.Contacts)
	}
	if qcEmpty.Contacts == 0 {
		t.Error("middle box intersects some blocks; contacts shouldn't be 0")
	}
}

func TestBuildStorePanicsOnGridMismatch(t *testing.T) {
	g1 := geom.NewSquareGrid(4, 4)
	g2 := geom.NewSquareGrid(4, 4)
	m := field.Threshold(field.Constant{Value: 1}, g2, 0.5, 0)
	defer func() {
		if recover() == nil {
			t.Error("grid mismatch should panic")
		}
	}()
	BuildStore(varch.MustHierarchy(g1), m)
}

func TestSummaryPanicsOnNonLeader(t *testing.T) {
	st, _ := store8(t, 13)
	defer func() {
		if recover() == nil {
			t.Error("non-leader lookup should panic")
		}
	}()
	st.Summary(geom.Coord{Col: 1, Row: 0}, 2)
}
