package shard

import (
	"fmt"

	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
)

// progHost runs a synthesized node program (package program) on the app
// interface, one instance per grid node, so the shard fabric executes
// the same guarded-command rules as every other engine. The engine makes
// one progHost per shard; they share the run-wide hostRun, in which a
// node's slot is touched only by its owner shard. The program's effects
// map onto the fabric as follows:
//
//   - Send unicasts hop by hop along routing.NextHopXY toward the
//     sender's level-k leader, keyed by the originating node id (unique
//     while each node sends at most once, as the labeling program does).
//   - A packet for another node is relayed and never shown to the
//     program; a packet for this node goes to OnMessage, in the batch's
//     (From, Key) order.
//   - Exfiltrate records the result and the instant.
//   - Compute and Sense charge nothing: the cost model is radio-only.
type progHost struct {
	*hostRun
	// The node currently executing and its fabric, set before every call
	// into an instance: a shard runs one node at a time.
	f    fabric
	node int

	msgs int64 // program sends launched
	hops int64 // unicast hops attempted, launches included
}

type hostRun struct {
	h       *varch.Hierarchy
	spec    *program.Spec
	insts   []*program.Instance
	final   any // written only by the exfiltrating node's owner shard
	finalAt sim.Time
}

// hostMsg is a program payload in flight toward a leader; only the
// current holder touches it, and a cross-shard handoff happens-before
// the receiving window.
type hostMsg struct {
	dst     geom.Coord
	size    int64
	payload any
}

func (a *progHost) start(f fabric, node int) {
	a.f, a.node = f, node
	a.insts[node] = program.NewInstance(a.spec, a)
	a.insts[node].RunToQuiescence()
}

func (a *progHost) wake(f fabric, node int, pkts []Packet, _ bool) {
	a.f, a.node = f, node
	me := a.Coord()
	for _, p := range pkts {
		msg := p.Payload.(*hostMsg)
		if msg.dst != me {
			a.relay(me, msg, p.Key)
			continue
		}
		a.insts[node].OnMessage(msg.payload)
	}
}

// relay transmits msg one XY hop toward its destination leader.
func (a *progHost) relay(me geom.Coord, msg *hostMsg, key int64) {
	dir, ok := routing.NextHopXY(me, msg.dst)
	if !ok {
		panic(fmt.Sprintf("shard: hosted send to self at %v", me))
	}
	a.hops++
	a.f.unicast(a.node, a.h.Grid.Index(me.Step(dir)), msg.size, key, msg)
}

func (a *progHost) Send(level int, size int64, payload any) {
	me := a.Coord()
	a.msgs++
	a.relay(me, &hostMsg{dst: a.h.LeaderAt(me, level), size: size, payload: payload}, int64(a.node))
}

func (a *progHost) Exfiltrate(result any) { a.final, a.finalAt = result, a.f.now() }
func (a *progHost) Compute(int64)         {}
func (a *progHost) Sense(int64)           {}
func (a *progHost) Coord() geom.Coord     { return a.h.Grid.CoordOf(a.node) }
