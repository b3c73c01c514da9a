package varch

import (
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// valByIndex gives node <c> the value of its row-major grid index.
func valByIndex(g *geom.Grid) Values {
	return func(c geom.Coord) int64 { return int64(g.Index(c)) }
}

func TestGroupSumBothStrategies(t *testing.T) {
	for _, strat := range []Strategy{Direct, Convergecast} {
		vm, _, _ := newVM(t, 8)
		g := vm.Grid()
		// Sum of all indices 0..63 = 2016.
		got, lat := vm.GroupSum(vm.Hier.Root(), 3, valByIndex(g), strat)
		if got != 2016 {
			t.Errorf("%v: sum = %d, want 2016", strat, got)
		}
		if lat <= 0 {
			t.Errorf("%v: latency = %d, want positive", strat, lat)
		}
	}
}

func TestGroupSumSubBlock(t *testing.T) {
	vm, _, _ := newVM(t, 8)
	g := vm.Grid()
	leader := geom.Coord{Col: 4, Row: 4}
	// 2x2 block at (4,4): indices 36, 37, 44, 45 -> 162.
	got, _ := vm.GroupSum(leader, 1, valByIndex(g), Direct)
	if got != 162 {
		t.Errorf("sum = %d, want 162", got)
	}
}

func TestConvergecastSavesEnergyOnReduction(t *testing.T) {
	// For single-unit reductions over a large group, convergecast must beat
	// direct on total energy: direct pays Manhattan distance per member,
	// convergecast pays only one short hopset per level.
	energyOf := func(strat Strategy) cost.Energy {
		vm, _, l := newVM(t, 16)
		vm.GroupSum(vm.Hier.Root(), 4, valByIndex(vm.Grid()), strat)
		return l.Metrics().Total
	}
	direct, conv := energyOf(Direct), energyOf(Convergecast)
	if conv >= direct {
		t.Errorf("convergecast energy %d not below direct %d", conv, direct)
	}
}

func TestGroupSortBothStrategies(t *testing.T) {
	for _, strat := range []Strategy{Direct, Convergecast} {
		vm, _, _ := newVM(t, 4)
		g := vm.Grid()
		// Descending values: node index i holds 100-i.
		vals := func(c geom.Coord) int64 { return 100 - int64(g.Index(c)) }
		sorted, lat := vm.GroupSort(vm.Hier.Root(), 2, vals, strat)
		if len(sorted) != 16 {
			t.Fatalf("%v: %d values", strat, len(sorted))
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1] > sorted[i] {
				t.Fatalf("%v: not sorted: %v", strat, sorted)
			}
		}
		if sorted[0] != 85 || sorted[15] != 100 {
			t.Errorf("%v: range = [%d,%d], want [85,100]", strat, sorted[0], sorted[15])
		}
		if lat <= 0 {
			t.Errorf("%v: nonpositive latency", strat)
		}
	}
}

func TestCollectiveOnLevelZeroIsLocal(t *testing.T) {
	vm, _, l := newVM(t, 4)
	c := geom.Coord{Col: 2, Row: 2}
	got, lat := vm.GroupSum(c, 0, func(geom.Coord) int64 { return 42 }, Direct)
	if got != 42 {
		t.Errorf("sum = %d, want 42", got)
	}
	if lat != 0 {
		t.Errorf("level-0 collective latency = %d, want 0", lat)
	}
	if l.Metrics().Total != 0 {
		t.Error("level-0 collective should move no data")
	}
}

func TestCollectiveDeterministic(t *testing.T) {
	run := func() (int64, sim.Time, cost.Energy) {
		vm, _, l := newVM(t, 8)
		v, lat := vm.GroupSum(vm.Hier.Root(), 3, valByIndex(vm.Grid()), Convergecast)
		return v, lat, l.Metrics().Total
	}
	v1, l1, e1 := run()
	v2, l2, e2 := run()
	if v1 != v2 || l1 != l2 || e1 != e2 {
		t.Error("collectives must be deterministic")
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if Direct.String() != "direct" || Convergecast.String() != "convergecast" {
		t.Error("strategy names wrong")
	}
}
