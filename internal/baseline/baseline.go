// Package baseline implements the centralized comparator the paper's
// design-flow discussion invokes ("the end user could decide if a divide
// and conquer approach is better than a centralized approach", Section 2):
// every virtual node ships its raw feature status to a single sink, which
// labels regions with a sequential union-find. Experiments E3 and E4
// compare it against the synthesized divide-and-conquer program on total
// latency, total energy, and energy balance.
package baseline

import (
	"fmt"

	"wsnva/internal/cost"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
)

// Stats summarizes one centralized collection round.
type Stats struct {
	TotalEnergy   cost.Energy
	MaxNodeEnergy cost.Energy
	Balance       float64
	Latency       sim.Time
	Messages      int64
}

// statusSize is the per-node report size in data units: one reading plus
// origin coordinates (the sink must know where the report came from).
const statusSize = 2

// Run executes one centralized labeling round analytically: every non-sink
// cell sends a statusSize-unit report to sink along the XY route, charging
// ledger per hop; the sink then runs union-find labeling, charged as one
// compute unit per cell. Latency is the worst route latency plus the sink's
// computation (which also subsumes the serial reception bottleneck at the
// sink under the uniform model).
func Run(ledger *cost.Ledger, m *field.BinaryMap, sink geom.Coord) (*regions.Labeling, Stats) {
	g := m.Grid
	if !g.InBounds(sink) {
		panic(fmt.Sprintf("baseline: sink %v out of bounds", sink))
	}
	if ledger.N() != g.N() {
		panic(fmt.Sprintf("baseline: ledger tracks %d nodes, grid has %d", ledger.N(), g.N()))
	}
	var st Stats
	model := ledger.Model()
	for _, c := range g.Coords() {
		ledger.Charge(g.Index(c), cost.Sense, 1)
		if c == sink {
			continue
		}
		hops := c.Manhattan(sink)
		st.Messages++
		routing.WalkXY(g, c, sink, func(a, b geom.Coord) {
			st.TotalEnergy += cost.Energy(ledger.ChargeTransfer(g.Index(a), g.Index(b), statusSize))
		})
		if lat := sim.Time(hops) * sim.Time(model.TxLatency(statusSize)); lat > st.Latency {
			st.Latency = lat
		}
	}
	// Sink-side labeling: one compute unit per cell examined.
	ledger.Charge(g.Index(sink), cost.Compute, int64(g.N()))
	st.TotalEnergy += model.EnergyOf(cost.Compute, int64(g.N()))
	st.Latency += sim.Time(model.ComputeLatency(int64(g.N())))
	met := ledger.Metrics()
	st.MaxNodeEnergy = met.Max
	st.Balance = met.Balance
	return regions.Label(m), st
}
