// Package synth is the program-synthesis stage of the methodology
// (Section 4.3): it converts the mapped quad-tree algorithm into the
// reactive guarded-command program of paper Figure 4, one instance per
// virtual node, and provides the driver that executes a synthesized
// program set on the virtual architecture.
//
// The generated rule set follows Figure 4 clause for clause, with the
// indexing made self-consistent (the paper's figure increments recLevel in
// two places whose interleaving it leaves ambiguous): here a node's
// recLevel names the highest level of mySubGraph it has completed, a
// message carries the level its contents must be merged at
// (mrecLevel = sender's recLevel + 1), and leaders contribute their own
// quadrant by a local merge rather than a self-message, so every leader
// waits for exactly the 3 external messages the paper predicts.
package synth

import (
	"fmt"

	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/trace"
	"wsnva/internal/varch"
)

// GraphMsg is the message alphabet of Figure 4: the sender's coordinates,
// its boundary sub-graph, and the recursion level the data merges at.
type GraphMsg struct {
	Sender geom.Coord
	Sub    *regions.Summary
	Level  int
}

// Config parameterizes the synthesized labeling program.
type Config struct {
	Hier *varch.Hierarchy
	// Sense produces the level-0 boundary summary of the cell at c from
	// the sensing interface ("compute mySubGraph from intra-cell readings").
	Sense func(c geom.Coord) *regions.Summary
}

// Register slots of the labeling program, named after Figure 4's state
// variables. Exported so tests and tools can inspect node state
// symbolically. VarStart is bool slot 0 in every synthesized program.
// The per-level arrays occupy one slot per level 0..maxrecLevel, so a
// program instance allocates nothing beyond its registers.
const (
	VarStart    = 0 // bool
	VarTransmit = 1 // bool
	VarDone     = 2 // bool

	VarRecLevel = 0 // int
	VarMsgsRecv = 1 // int, first of maxrecLevel+1: external messages merged per level

	VarSubGraph = 0 // obj, first of maxrecLevel+1: the *regions.Summary held per level
)

// subGraph returns a labeling node's level summary, nil if none.
func subGraph(e *program.Env, level int) *regions.Summary {
	s, _ := e.Objs[VarSubGraph+level].(*regions.Summary)
	return s
}

// mergeAt folds sub into the node's level summary.
func mergeAt(e *program.Env, level int, sub *regions.Summary) {
	if cur := subGraph(e, level); cur != nil {
		cur.Merge(sub)
		return
	}
	e.Objs[VarSubGraph+level] = sub
}

// takeSubGraph removes and returns the node's level summary.
func takeSubGraph(e *program.Env, level int) *regions.Summary {
	s := subGraph(e, level)
	e.Objs[VarSubGraph+level] = nil
	return s
}

// LabelingProgram synthesizes the homogeneous-region labeling program.
// One Spec serves every node of the grid: each instance reads its own
// coordinate from its Effector, so a run builds the rule set once. The
// returned Spec is self-contained: it reads and writes only its Env and
// the Effector.
func LabelingProgram(cfg Config) *program.Spec {
	h := cfg.Hier
	maxLevel := h.Levels
	spec := &program.Spec{
		Title: "label-regions",
		Ints:  VarMsgsRecv + maxLevel + 1,
		Bools: 3,
		Objs:  VarSubGraph + maxLevel + 1,
		Init:  func(e *program.Env) { e.Bools[VarStart] = true },
	}

	spec.Rules = []program.Rule{
		{
			Name:      "start",
			Condition: "start = true",
			Effect: "start = false\ncompute mySubGraph[0] from intra-cell readings\n" +
				"transmit = true",
			Guard: func(e *program.Env) bool { return e.Bools[VarStart] },
			Action: func(e *program.Env, fx program.Effector) {
				e.Bools[VarStart] = false
				fx.Sense(1)
				sub := cfg.Sense(fx.Coord())
				fx.Compute(1)
				mergeAt(e, 0, sub)
				e.Bools[VarTransmit] = true
			},
		},
		{
			Name:      "receive",
			Condition: "received mGraph = {senderCoord, msubGraph, mrecLevel}",
			Effect:    "merge(msubGraph, mySubGraph[mrecLevel])\nmsgsReceived[mrecLevel]++",
			Guard:     func(e *program.Env) bool { return e.PeekMsg() != nil },
			Action: func(e *program.Env, fx program.Effector) {
				msg := e.TakeMsg().(GraphMsg)
				fx.Compute(msg.Sub.Size())
				mergeAt(e, msg.Level, msg.Sub)
				e.Ints[VarMsgsRecv+msg.Level]++
			},
		},
		{
			Name:      "transmit",
			Condition: "transmit = true",
			Effect: "message = {myCoords, mySubGraph[recLevel], recLevel+1}\n" +
				"if (recLevel = maxrecLevel)\n  exfiltrate message\n" +
				"else if (myCoords = Leader(recLevel+1))\n" +
				"  merge(mySubGraph[recLevel], mySubGraph[recLevel+1]); recLevel++\n" +
				"else\n  send message to Leader(recLevel+1); halt\ntransmit = false",
			Guard: func(e *program.Env) bool { return e.Bools[VarTransmit] },
			Action: func(e *program.Env, fx program.Effector) {
				e.Bools[VarTransmit] = false
				level := int(e.Ints[VarRecLevel])
				me := fx.Coord()
				switch {
				case level == maxLevel:
					e.Bools[VarDone] = true
					fx.Exfiltrate(subGraph(e, level))
				case h.LeaderAt(me, level+1) == me:
					// The self-message of Figure 2's mapping: the parent is
					// co-located with its NW child, so the contribution is a
					// local merge, not a transmission.
					mergeAt(e, level+1, takeSubGraph(e, level))
					e.Ints[VarRecLevel] = int64(level + 1)
				default:
					sub := takeSubGraph(e, level)
					fx.Send(level+1, sub.Size(), GraphMsg{Sender: me, Sub: sub, Level: level + 1})
					e.Bools[VarDone] = true
				}
			},
		},
		{
			Name:      "promote",
			Condition: "msgsReceived[recLevel] = 3 and not done",
			Effect:    "transmit = true",
			Guard: func(e *program.Env) bool {
				if e.Bools[VarDone] || e.Bools[VarTransmit] {
					return false
				}
				level := int(e.Ints[VarRecLevel])
				if level == 0 || level > maxLevel {
					return false
				}
				return e.Ints[VarMsgsRecv+level] == 3
			},
			Action: func(e *program.Env, fx program.Effector) {
				// Consume the count so the guard cannot refire at this level.
				e.Ints[VarMsgsRecv+int(e.Ints[VarRecLevel])] = -1
				e.Bools[VarTransmit] = true
			},
		},
	}
	return spec
}

// SenseFromMap returns a Sense function reading a node's cell from a
// binary feature map — the simulated sensing interface.
func SenseFromMap(m *field.BinaryMap) func(c geom.Coord) *regions.Summary {
	return func(c geom.Coord) *regions.Summary { return regions.Leaf(m, c) }
}

// Result is the outcome of one execution round of the synthesized
// application on the virtual architecture.
type Result struct {
	Final       *regions.Summary // the exfiltrated root summary
	Completion  sim.Time         // kernel time when exfiltration happened
	RuleFirings int64            // total guarded-command firings
	// RuleCoverage sums per-rule firings across all nodes, indexed like the
	// synthesized Spec's rule list (start, receive, transmit, promote).
	RuleCoverage []int64
	ExfilCoord   geom.Coord // node that exfiltrated (must be the root)
}

// machineFx adapts varch.Machine to program.Effector for one node.
type machineFx struct {
	vm    *varch.Machine
	coord geom.Coord
	out   *Result
}

func (f *machineFx) Send(level int, size int64, payload any) {
	f.vm.SendToLeader(f.coord, level, size, payload)
}

func (f *machineFx) Exfiltrate(result any) {
	f.out.Final = result.(*regions.Summary)
	f.out.Completion = f.vm.Kernel().Now()
	f.out.ExfilCoord = f.coord
	emitExfiltrate(f.vm, f.coord)
}

func (f *machineFx) Compute(units int64) { f.vm.Compute(f.coord, units) }
func (f *machineFx) Sense(units int64)   { f.vm.Sense(f.coord, units) }
func (f *machineFx) Coord() geom.Coord   { return f.coord }

// emitExfiltrate records the out-of-network delivery when tracing is on.
func emitExfiltrate(vm *varch.Machine, c geom.Coord) {
	tr := vm.Tracer()
	if tr == nil {
		return
	}
	tr.EmitEvent(trace.Event{At: vm.Kernel().Now(), Kind: trace.Exfiltrate,
		Node: c.String(), ID: vm.Grid().Index(c), Col: c.Col, Row: c.Row,
		PeerCol: -1, PeerRow: -1, Detail: "final summary"})
}

// phase emits a driver phase-boundary marker when tracing is on.
func phase(vm *varch.Machine, detail string) {
	tr := vm.Tracer()
	if tr == nil {
		return
	}
	tr.EmitEvent(trace.Event{At: vm.Kernel().Now(), Kind: trace.Phase,
		ID: -1, Col: -1, Row: -1, PeerCol: -1, PeerRow: -1, Detail: detail})
}

// wireTraceHooks makes inst's rule firings visible in the machine's trace.
func wireTraceHooks(vm *varch.Machine, inst *program.Instance, c geom.Coord) {
	tr := vm.Tracer()
	if tr == nil {
		return
	}
	idx := vm.Grid().Index(c)
	inst.SetFireHook(func(rule string) {
		tr.EmitEvent(trace.Event{At: vm.Kernel().Now(), Kind: trace.RuleFire,
			Node: c.String(), ID: idx, Col: c.Col, Row: c.Row,
			PeerCol: -1, PeerRow: -1, Detail: rule})
	})
}

// Transport optionally transforms every GraphMsg between transmission and
// delivery — the hook integration tests use to force each message through
// the binary wire codec, proving the serialized form carries the protocol.
type Transport func(GraphMsg) (GraphMsg, error)

// RunOnMachine synthesizes the labeling program for every node of vm's
// grid, wires the instances to the machine, executes one full round from
// time 0, and returns the result. It is experiment E2's engine and the
// reference implementation the goroutine runtime is checked against.
func RunOnMachine(vm *varch.Machine, m *field.BinaryMap) (*Result, error) {
	return RunOnMachineWithTransport(vm, m, nil)
}

// RunOnMachineWithTransport is RunOnMachine with every delivered message
// passed through transport first (nil means identity).
func RunOnMachineWithTransport(vm *varch.Machine, m *field.BinaryMap, transport Transport) (*Result, error) {
	h := vm.Hier
	if m.Grid != vm.Grid() {
		return nil, fmt.Errorf("synth: map grid and machine grid differ")
	}
	spec := LabelingProgram(Config{Hier: h, Sense: SenseFromMap(m)})
	res := &Result{RuleCoverage: make([]int64, len(spec.Rules))}
	var transportErr error
	insts := make([]*program.Instance, h.Grid.N())
	for _, c := range h.Grid.Coords() {
		c := c
		fx := &machineFx{vm: vm, coord: c, out: res}
		inst := program.NewInstance(spec, fx)
		wireTraceHooks(vm, inst, c)
		insts[h.Grid.Index(c)] = inst
		vm.Handle(c, func(msg varch.Message) {
			payload := msg.Payload
			if transport != nil {
				gm, err := transport(payload.(GraphMsg))
				if err != nil {
					if transportErr == nil {
						transportErr = err
					}
					return
				}
				payload = gm
			}
			inst.OnMessage(payload)
		})
	}
	// Start every node at t=0; rule firings schedule the message traffic.
	phase(vm, "labeling:start")
	for _, inst := range insts {
		inst.RunToQuiescence()
	}
	vm.Kernel().Run()
	phase(vm, "labeling:end")
	for _, inst := range insts {
		res.RuleFirings += inst.Fired()
		for i, n := range inst.FiredByRule() {
			res.RuleCoverage[i] += n
		}
		// The result only holds summaries (which survive a Release), never
		// the instance or its Env, so the interpreter state is recyclable.
		inst.Release()
	}
	if transportErr != nil {
		return nil, transportErr
	}
	if res.Final == nil {
		return nil, fmt.Errorf("synth: round did not complete (no exfiltration)")
	}
	if res.ExfilCoord != h.Root() {
		return nil, fmt.Errorf("synth: exfiltration at %v, want root %v", res.ExfilCoord, h.Root())
	}
	return res, nil
}
