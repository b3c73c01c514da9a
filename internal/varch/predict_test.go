package varch

import (
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// Predicted collective costs must equal measured costs exactly, for every
// level, strategy, and leader — the Section 3.2 cost-export contract.
func TestPredictReduceMatchesMeasured(t *testing.T) {
	for _, side := range []int{4, 8, 16} {
		for _, strat := range []Strategy{Direct, Convergecast} {
			vmRef, _, _ := newVM(t, side)
			h := vmRef.Hier
			for level := 1; level <= h.Levels; level++ {
				for _, leader := range h.Leaders(level) {
					predE, predL := predictReduce(vmRef, leader, level, strat)
					vm, _, l := newVM(t, side)
					_, lat := vm.GroupSum(leader, level, func(geom.Coord) int64 { return 1 }, strat)
					if l.Metrics().Total != predE {
						t.Fatalf("side %d %v level %d leader %v: energy %d, predicted %d",
							side, strat, level, leader, l.Metrics().Total, predE)
					}
					if lat != predL {
						t.Fatalf("side %d %v level %d leader %v: latency %d, predicted %d",
							side, strat, level, leader, lat, predL)
					}
				}
			}
		}
	}
}

func TestPredictBroadcastMatchesMeasured(t *testing.T) {
	for _, side := range []int{4, 8} {
		for _, size := range []int64{1, 4} {
			vmRef, _, _ := newVM(t, side)
			h := vmRef.Hier
			for level := 1; level <= h.Levels; level++ {
				for _, leader := range h.Leaders(level) {
					predE, predL := predictBroadcast(vmRef, leader, level, size)
					vm, k, l := newVM(t, side)
					lat := vm.GroupBroadcast(leader, level, size, nil)
					k.Run()
					if l.Metrics().Total != predE {
						t.Fatalf("side %d size %d level %d: energy %d, predicted %d",
							side, size, level, l.Metrics().Total, predE)
					}
					if lat != predL {
						t.Fatalf("side %d size %d level %d: latency %d, predicted %d",
							side, size, level, lat, predL)
					}
				}
			}
		}
	}
}

// The predicted convergecast advantage must have the right asymptotic
// shape: energy ratio direct/convergecast grows with the level.
func TestPredictedConvergecastAdvantageGrows(t *testing.T) {
	vm, _, _ := newVM(t, 16)
	h := vm.Hier
	prev := 0.0
	for level := 2; level <= h.Levels; level++ {
		dE, _ := predictReduce(vm, h.Root(), level, Direct)
		cE, _ := predictReduce(vm, h.Root(), level, Convergecast)
		ratio := float64(dE) / float64(cE)
		if ratio <= prev {
			t.Errorf("level %d: advantage %v did not grow past %v", level, ratio, prev)
		}
		prev = ratio
	}
}

// Analytical cost prediction for the collective primitives — the "cost
// functions ... specified for each primitive" requirement of Section 3.2
// extended beyond point-to-point sends. The tests below hold the machine
// to it: predicted == measured, for every level, strategy and leader.

// predictReduce returns the energy and latency of a single-unit reduction
// (GroupSum) over the level-k group led by leader, under strategy strat.
func predictReduce(vm *Machine, leader geom.Coord, level int, strat Strategy) (cost.Energy, sim.Time) {
	h := vm.Hier
	m := vm.ledger.Model()
	perUnitHop := m.EnergyOf(cost.Tx, 1) + m.EnergyOf(cost.Rx, 1)
	switch strat {
	case Direct:
		var energy cost.Energy
		var maxLat sim.Time
		members := h.Followers(leader, level)
		for _, f := range members {
			if f == leader {
				continue
			}
			hops := f.Manhattan(leader)
			energy += cost.Energy(hops) * perUnitHop
			if lat := sim.Time(hops) * sim.Time(m.TxLatency(1)); lat > maxLat {
				maxLat = lat
			}
		}
		energy += m.EnergyOf(cost.Compute, int64(len(members)-1))
		return energy, maxLat + sim.Time(m.ComputeLatency(int64(len(members)-1)))

	case Convergecast:
		var energy cost.Energy
		var total sim.Time
		for s := 1; s <= level; s++ {
			var levelLat sim.Time
			for _, sub := range h.leadersWithin(leader, level, s) {
				for _, ch := range h.Children(sub, s) {
					if ch == sub {
						continue
					}
					hops := ch.Manhattan(sub)
					energy += cost.Energy(hops) * perUnitHop
					if lat := sim.Time(hops) * sim.Time(m.TxLatency(1)); lat > levelLat {
						levelLat = lat
					}
				}
				energy += m.EnergyOf(cost.Compute, 3)
			}
			total += levelLat + sim.Time(m.ComputeLatency(3))
		}
		return energy, total
	}
	panic("varch: unknown strategy")
}

// predictBroadcast returns the energy and latency of GroupBroadcast of the
// given size over the level-k group led by leader.
func predictBroadcast(vm *Machine, leader geom.Coord, level int, size int64) (cost.Energy, sim.Time) {
	h := vm.Hier
	m := vm.ledger.Model()
	perUnitHop := m.EnergyOf(cost.Tx, size) + m.EnergyOf(cost.Rx, size)
	var energy cost.Energy
	var total sim.Time
	holders := []geom.Coord{leader}
	for s := level; s >= 1; s-- {
		var levelLat sim.Time
		var next []geom.Coord
		for _, holder := range holders {
			for _, ch := range h.Children(holder, s) {
				if ch != holder {
					hops := ch.Manhattan(holder)
					energy += cost.Energy(hops) * perUnitHop
					if lat := sim.Time(hops) * sim.Time(m.TxLatency(size)); lat > levelLat {
						levelLat = lat
					}
				}
				next = append(next, ch)
			}
		}
		holders = next
		total += levelLat
	}
	return energy, total
}
