package synth

import (
	"fmt"

	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/varch"
)

// The second synthesized application: event-driven alarm aggregation
// (wildfire detection, one of the motivating applications in the paper's
// introduction). Section 4.1 notes the periodic task-graph model "might
// not be suitable for event-driven applications ... where only the sensor
// nodes in the vicinity of the target perform the sampling"; this program
// is that other regime on the same virtual architecture: silent nodes cost
// nothing, and every alarm travels up the group hierarchy as a delta that
// each level's leader folds into its local picture before forwarding.
// The root raises the alarm when the count crosses a quorum.

// AlarmMsg is the alarm delta: how many newly alarmed cells it reports,
// their bounding box, and the level it merges at next.
type AlarmMsg struct {
	Count int
	Box   regions.BBox
	Level int
}

// alarmMsgSize is the cost-model size of one alarm delta: count + box.
const alarmMsgSize = 3

// AlarmConfig parameterizes the synthesized alarm program.
type AlarmConfig struct {
	Hier *varch.Hierarchy
	// Hot reports whether the reading at c crosses the alarm threshold.
	Hot func(c geom.Coord) bool
	// Quorum is the number of alarmed cells at which the root raises the
	// network-wide alarm.
	Quorum int
}

// EvacMsg is the evacuation order the root disseminates once the quorum
// fires; every node's program acknowledges it by entering the evacuating
// state.
type EvacMsg struct{}

// Register slots of the alarm program (bool slot VarStart included).
const (
	VarAlarmRaised = 1 // bool, root-only: quorum reached
	VarEvacuating  = 2 // bool: evacuation order received

	VarAlarmTotal = 0 // obj: per-level alarm counts (the root's top slot is global)
	VarAlarmBox   = 1 // obj: bounding boxes per level
	alarmOutbox   = 2 // obj: deltas awaiting transmission
)

// outItem is a queued delta with its next merge level.
type outItem struct {
	msg AlarmMsg
}

// AlarmProgram synthesizes the event-driven alarm program; like the
// labeling program, one Spec serves every node.
func AlarmProgram(cfg AlarmConfig) *program.Spec {
	h := cfg.Hier
	maxLevel := h.Levels
	if cfg.Quorum < 1 {
		panic(fmt.Sprintf("synth: quorum %d must be positive", cfg.Quorum))
	}
	spec := &program.Spec{
		Title: "alarm",
		Bools: 3,
		Objs:  3,
		Init: func(e *program.Env) {
			e.Bools[VarStart] = true
			e.Objs[VarAlarmTotal] = make([]int64, maxLevel+1)
			e.Objs[VarAlarmBox] = make([]regions.BBox, maxLevel+1)
			e.Objs[alarmOutbox] = []outItem(nil)
		},
	}
	totals := func(e *program.Env) []int64 { return e.Objs[VarAlarmTotal].([]int64) }
	boxes := func(e *program.Env) []regions.BBox { return e.Objs[VarAlarmBox].([]regions.BBox) }

	// mergeDelta folds a delta into the node's level record and queues the
	// upward forward (or raises the alarm at the root).
	mergeDelta := func(e *program.Env, msg AlarmMsg) {
		t := totals(e)
		b := boxes(e)
		if t[msg.Level] == 0 {
			b[msg.Level] = msg.Box
		} else {
			b[msg.Level] = b[msg.Level].Union(msg.Box)
		}
		t[msg.Level] += int64(msg.Count)
		if msg.Level < maxLevel {
			up := AlarmMsg{Count: msg.Count, Box: msg.Box, Level: msg.Level + 1}
			e.Objs[alarmOutbox] = append(e.Objs[alarmOutbox].([]outItem), outItem{msg: up})
		}
	}

	spec.Rules = []program.Rule{
		{
			Name:      "start",
			Condition: "start = true",
			Effect:    "start = false\nsense\nif hot: emit delta {1, myCell} toward Leader(1)",
			Guard:     func(e *program.Env) bool { return e.Bools[VarStart] },
			Action: func(e *program.Env, fx program.Effector) {
				e.Bools[VarStart] = false
				fx.Sense(1)
				me := fx.Coord()
				if !cfg.Hot(me) {
					return
				}
				fx.Compute(1)
				box := regions.BBox{MinCol: me.Col, MinRow: me.Row, MaxCol: me.Col, MaxRow: me.Row}
				mergeDelta(e, AlarmMsg{Count: 1, Box: box, Level: 0})
			},
		},
		{
			Name:      "receive",
			Condition: "received mAlarm = {count, box, mrecLevel}",
			Effect:    "alarmTotal[mrecLevel] += count; alarmBox[mrecLevel] ∪= box\nqueue delta for Leader(mrecLevel+1)",
			Guard: func(e *program.Env) bool {
				_, ok := e.PeekMsg().(AlarmMsg)
				return ok
			},
			Action: func(e *program.Env, fx program.Effector) {
				msg := e.TakeMsg().(AlarmMsg)
				fx.Compute(alarmMsgSize)
				mergeDelta(e, msg)
			},
		},
		{
			Name:      "evacuate",
			Condition: "received mEvacuate",
			Effect:    "evacuating = true",
			Guard: func(e *program.Env) bool {
				_, ok := e.PeekMsg().(EvacMsg)
				return ok
			},
			Action: func(e *program.Env, fx program.Effector) {
				e.TakeMsg()
				e.Bools[VarEvacuating] = true
			},
		},
		{
			Name:      "forward",
			Condition: "outbox not empty",
			Effect: "pop delta; if myCoords = Leader(level) merge locally\n" +
				"else send delta to Leader(level)",
			Guard: func(e *program.Env) bool { return len(e.Objs[alarmOutbox].([]outItem)) > 0 },
			Action: func(e *program.Env, fx program.Effector) {
				box := e.Objs[alarmOutbox].([]outItem)
				item := box[0]
				e.Objs[alarmOutbox] = box[1:]
				if me := fx.Coord(); h.LeaderAt(me, item.msg.Level) == me {
					// This node leads the next level too: fold locally.
					mergeDelta(e, item.msg)
					return
				}
				fx.Send(item.msg.Level, alarmMsgSize, item.msg)
			},
		},
		{
			Name:      "quorum",
			Condition: "alarmTotal[maxrecLevel] >= quorum and not alarmRaised",
			Effect:    "alarmRaised = true\nexfiltrate {total, box}",
			Guard: func(e *program.Env) bool {
				if e.Bools[VarAlarmRaised] {
					return false
				}
				return totals(e)[maxLevel] >= int64(cfg.Quorum)
			},
			Action: func(e *program.Env, fx program.Effector) {
				e.Bools[VarAlarmRaised] = true
				fx.Exfiltrate(AlarmMsg{
					Count: int(totals(e)[maxLevel]),
					Box:   boxes(e)[maxLevel],
					Level: maxLevel,
				})
			},
		},
	}
	return spec
}

// AlarmResult is the outcome of one alarm round.
type AlarmResult struct {
	Raised      bool
	AtCount     int          // alarm count when the quorum fired
	FinalCount  int          // total alarmed cells seen by the root at quiescence
	Box         regions.BBox // bounding box of alarms at quorum time
	RaisedAt    sim.Time
	RuleFirings int64

	insts []*program.Instance
}

// EvacuatingCount returns how many nodes have received the evacuation
// order. The instances stay wired to the machine after the round, so a
// caller can GroupBroadcast an EvacMsg, drain the kernel, and count here.
func (r *AlarmResult) EvacuatingCount() int {
	n := 0
	for _, inst := range r.insts {
		if inst.Env.Bools[VarEvacuating] {
			n++
		}
	}
	return n
}

// RunAlarmOnMachine executes one alarm round: every node samples hot once
// at t=0, alarm deltas race up the hierarchy, and the root raises the
// alarm if the quorum is met. The hot map marks alarmed cells.
func RunAlarmOnMachine(vm *varch.Machine, hot *field.BinaryMap, quorum int) (*AlarmResult, error) {
	h := vm.Hier
	if hot.Grid != vm.Grid() {
		return nil, fmt.Errorf("synth: hot map grid and machine grid differ")
	}
	res := &AlarmResult{}
	insts := make([]*program.Instance, h.Grid.N())
	rootIdx := h.Grid.Index(h.Root())
	spec := AlarmProgram(AlarmConfig{Hier: h, Hot: hot.At, Quorum: quorum})
	for _, c := range h.Grid.Coords() {
		fx := &alarmFx{vm: vm, coord: c, out: res}
		inst := program.NewInstance(spec, fx)
		insts[h.Grid.Index(c)] = inst
		vm.Handle(c, func(msg varch.Message) {
			inst.OnMessage(msg.Payload)
		})
	}
	for _, inst := range insts {
		inst.RunToQuiescence()
	}
	vm.Kernel().Run()
	for _, inst := range insts {
		res.RuleFirings += inst.Fired()
	}
	rootTotals := insts[rootIdx].Env.Objs[VarAlarmTotal].([]int64)
	res.FinalCount = int(rootTotals[h.Levels])
	res.insts = insts
	return res, nil
}

// alarmFx adapts the machine to the alarm program.
type alarmFx struct {
	vm    *varch.Machine
	coord geom.Coord
	out   *AlarmResult
}

func (f *alarmFx) Send(level int, size int64, payload any) {
	f.vm.SendToLeader(f.coord, level, size, payload)
}

func (f *alarmFx) Exfiltrate(result any) {
	msg := result.(AlarmMsg)
	f.out.Raised = true
	f.out.AtCount = msg.Count
	f.out.Box = msg.Box
	f.out.RaisedAt = f.vm.Kernel().Now()
}

func (f *alarmFx) Compute(units int64) { f.vm.Compute(f.coord, units) }
func (f *alarmFx) Sense(units int64)   { f.vm.Sense(f.coord, units) }
func (f *alarmFx) Coord() geom.Coord   { return f.coord }
