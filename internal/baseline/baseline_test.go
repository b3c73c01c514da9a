package baseline

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

func TestRunLabelsCorrectly(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.RandomBlobs(3, g.Terrain, 1, 2, rand.New(rand.NewSource(1))), g, 0.5, 0)
	l := cost.NewLedger(cost.NewUniform(), g.N())
	lab, st := Run(l, m, geom.Coord{})
	truth := regions.Label(m)
	if lab.Count != truth.Count {
		t.Errorf("count %d, truth %d", lab.Count, truth.Count)
	}
	if st.Messages != int64(g.N()-1) {
		t.Errorf("messages = %d, want %d", st.Messages, g.N()-1)
	}
	if st.TotalEnergy <= 0 || st.Latency <= 0 {
		t.Errorf("degenerate stats %+v", st)
	}
}

func TestCornerSinkCosts4x4(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	m := field.Threshold(field.Constant{Value: 0}, g, 0.5, 0) // empty map
	l := cost.NewLedger(cost.NewUniform(), g.N())
	_, st := Run(l, m, geom.Coord{})
	// Sum of Manhattan distances to (0,0) on 4x4: sum over cells (col+row)
	// = 2 * 16 * 1.5 = 48 hops; 2 units per hop transferred, 2 energy per
	// unit-hop => 48 * 2 * 2 = 192; plus sink compute 16 = 208.
	if st.TotalEnergy != 208 {
		t.Errorf("TotalEnergy = %d, want 208", st.TotalEnergy)
	}
	// Worst route: 6 hops x 2 units = 12; compute 16; total 28.
	if st.Latency != 28 {
		t.Errorf("Latency = %d, want 28", st.Latency)
	}
}

func TestSinkIsHotSpot(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.Threshold(field.Constant{Value: 1}, g, 0.5, 0)
	l := cost.NewLedger(cost.NewUniform(), g.N())
	sink := geom.Coord{Col: 3, Row: 3}
	_, st := Run(l, m, sink)
	if l.Energy(g.Index(sink)) != l.Metrics().Max {
		t.Error("sink should be the hottest node")
	}
	if st.Balance <= 1 {
		t.Errorf("balance = %v, want > 1 (sink concentration)", st.Balance)
	}
}

func TestCenterSinkCheaperThanCorner(t *testing.T) {
	g := geom.NewSquareGrid(16, 16)
	m := field.Threshold(field.Constant{Value: 0}, g, 0.5, 0)
	lc := cost.NewLedger(cost.NewUniform(), g.N())
	_, corner := Run(lc, m, geom.Coord{})
	lm := cost.NewLedger(cost.NewUniform(), g.N())
	_, center := Run(lm, m, geom.Coord{Col: g.Cols / 2, Row: g.Rows / 2})
	if center.TotalEnergy >= corner.TotalEnergy {
		t.Errorf("center sink energy %d should beat corner %d", center.TotalEnergy, corner.TotalEnergy)
	}
	if center.Latency >= corner.Latency {
		t.Errorf("center sink latency %d should beat corner %d", center.Latency, corner.Latency)
	}
}

// The headline comparison of E3: at scale, divide-and-conquer beats the
// centralized baseline on total energy for sparse feature maps.
func TestDCBeatsCentralizedOnEnergyAtScale(t *testing.T) {
	side := 16
	g := geom.NewSquareGrid(side, float64(side))
	m := field.Threshold(field.RandomBlobs(3, g.Terrain, 1.0, 1.5, rand.New(rand.NewSource(9))), g, 0.5, 0)

	lBase := cost.NewLedger(cost.NewUniform(), g.N())
	_, base := Run(lBase, m, geom.Coord{})

	h := varch.MustHierarchy(g)
	lDC := cost.NewLedger(cost.NewUniform(), g.N())
	vm := varch.NewMachine(h, sim.New(), lDC)
	res, err := synth.RunOnMachine(vm, m)
	if err != nil {
		t.Fatal(err)
	}
	truth := regions.Label(m)
	if res.Final.Count() != truth.Count {
		t.Fatalf("D&C miscounted: %d vs %d", res.Final.Count(), truth.Count)
	}
	if cost.Energy(lDC.Metrics().Total) >= base.TotalEnergy {
		t.Errorf("D&C energy %d should beat centralized %d at side %d",
			lDC.Metrics().Total, base.TotalEnergy, side)
	}
}

func TestRunPanics(t *testing.T) {
	g := geom.NewSquareGrid(4, 4)
	m := field.Threshold(field.Constant{Value: 0}, g, 0.5, 0)
	for name, f := range map[string]func(){
		"bad sink":        func() { Run(cost.NewLedger(cost.NewUniform(), g.N()), m, geom.Coord{Col: 9, Row: 0}) },
		"ledger mismatch": func() { Run(cost.NewLedger(cost.NewUniform(), 3), m, geom.Coord{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}
