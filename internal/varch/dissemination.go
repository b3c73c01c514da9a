package varch

import (
	"wsnva/internal/geom"
	"wsnva/internal/sim"
)

// Downward group communication and synchronization primitives. Section 3.2
// requires communication primitives "for a set of nodes (collective)"; the
// related-work discussion points at UW-API, whose region collectives
// include barrier synchronization. These primitives complete the middleware
// surface: a leader can disseminate to its whole group, and a group can
// synchronize at its leader.

// GroupBroadcast delivers a payload from a level-k leader to every member
// of its group. The dissemination pattern is the reverse of the quad-tree
// convergecast: the payload descends the sub-hierarchy one level at a time
// (leader → its 4 level-(k-1) sub-leaders → … → all members), so every
// transfer is short and the cost is balanced instead of radiating every
// copy from the leader. Returns the modeled completion latency; handlers
// of member nodes fire through the normal delivery path.
func (vm *Machine) GroupBroadcast(leader geom.Coord, level int, size int64, payload any) sim.Time {
	h := vm.Hier
	if !h.IsLeader(leader, level) {
		panic("varch: GroupBroadcast from a non-leader")
	}
	var total sim.Time
	holders := []geom.Coord{leader}
	for s := level; s >= 1; s-- {
		var levelLat sim.Time
		var next []geom.Coord
		for _, holder := range holders {
			for _, ch := range h.Children(holder, s) {
				if ch != holder {
					_, lat, ok := vm.chargeRoute(holder, ch, size)
					if !ok {
						// The transfer died (lost, or ch crashed): ch and its
						// whole sub-block never see the payload.
						continue
					}
					if lat > levelLat {
						levelLat = lat
					}
				}
				next = append(next, ch)
			}
		}
		holders = next
		total += levelLat
	}
	// Deliver to every member the dissemination reached (including the
	// leader) at the modeled time. With the fault layer idle every member is
	// reached and no tracking set is built — the fault-free path stays
	// allocation-identical.
	var reached map[geom.Coord]bool
	if vm.alive != nil || vm.loss > 0 {
		reached = make(map[geom.Coord]bool, len(holders))
		for _, hd := range holders {
			reached[hd] = true
		}
	}
	g := h.Grid
	sentAt := vm.kernel.Now()
	for _, m := range h.Followers(leader, level) {
		if reached != nil && !reached[m] {
			continue
		}
		m := m
		msg := Message{From: leader, Size: size, Payload: payload}
		vm.kernel.AtOwned(g.Index(m), sentAt+total, func() { vm.deliver(m, msg, sentAt) })
	}
	return total
}
