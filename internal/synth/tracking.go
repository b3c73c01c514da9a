package synth

import (
	"wsnva/internal/geom"
	"wsnva/internal/program"
	"wsnva/internal/varch"
)

// The third synthesized application: target tracking, the example
// application paper Figure 1 itself annotates the methodology with.
// Nodes that detect the target (signal strength above threshold) send
// weighted reports up the group hierarchy; every leader accumulates the
// weighted-centroid moments (Σw·x, Σw·y, Σw) for its block, and the root's
// moments yield the network's position estimate. Like the alarm program it
// is event-driven: nodes out of detection range cost nothing beyond the
// sample.

// TrackReport is the tracking message: centroid moments for the reporting
// subtree, in milli-units to stay integral, plus the merge level.
type TrackReport struct {
	WX, WY, W int64 // Σ w·x, Σ w·y, Σ w (w in milli-units)
	Level     int
}

// trackMsgSize is the cost-model size of one report: three moments.
const trackMsgSize = 3

// TrackingConfig parameterizes the synthesized tracking program.
type TrackingConfig struct {
	Hier *varch.Hierarchy
	// Strength returns the detection strength at c in [0,1]; zero means
	// no detection and no traffic.
	Strength func(c geom.Coord) float64
}

// Register slots of the tracking program (bool slot VarStart included):
// the per-level centroid moments and the reports awaiting transmission.
const (
	VarTrackWX  = 0 // obj
	VarTrackWY  = 1 // obj
	VarTrackW   = 2 // obj
	trackOutbox = 3 // obj
)

// TrackingProgram synthesizes the tracking program; one Spec serves
// every node.
func TrackingProgram(cfg TrackingConfig) *program.Spec {
	h := cfg.Hier
	maxLevel := h.Levels
	spec := &program.Spec{
		Title: "track",
		Bools: 1,
		Objs:  4,
		Init: func(e *program.Env) {
			e.Bools[VarStart] = true
			e.Objs[VarTrackWX] = make([]int64, maxLevel+1)
			e.Objs[VarTrackWY] = make([]int64, maxLevel+1)
			e.Objs[VarTrackW] = make([]int64, maxLevel+1)
			e.Objs[trackOutbox] = []TrackReport(nil)
		},
	}
	moments := func(e *program.Env) (wx, wy, w []int64) {
		return e.Objs[VarTrackWX].([]int64), e.Objs[VarTrackWY].([]int64), e.Objs[VarTrackW].([]int64)
	}
	merge := func(e *program.Env, r TrackReport) {
		wx, wy, w := moments(e)
		wx[r.Level] += r.WX
		wy[r.Level] += r.WY
		w[r.Level] += r.W
		if r.Level < maxLevel {
			up := r
			up.Level = r.Level + 1
			e.Objs[trackOutbox] = append(e.Objs[trackOutbox].([]TrackReport), up)
		}
	}

	spec.Rules = []program.Rule{
		{
			Name:      "start",
			Condition: "start = true",
			Effect:    "sense; if detecting: emit report {w·x, w·y, w}",
			Guard:     func(e *program.Env) bool { return e.Bools[VarStart] },
			Action: func(e *program.Env, fx program.Effector) {
				e.Bools[VarStart] = false
				fx.Sense(1)
				me := fx.Coord()
				s := cfg.Strength(me)
				if s <= 0 {
					return
				}
				fx.Compute(1)
				w := int64(s * 1000)
				if w == 0 {
					w = 1
				}
				merge(e, TrackReport{
					WX: w * int64(me.Col), WY: w * int64(me.Row), W: w, Level: 0,
				})
			},
		},
		{
			Name:      "receive",
			Condition: "received mTrack = {wx, wy, w, mrecLevel}",
			Effect:    "moments[mrecLevel] += report\nqueue report for Leader(mrecLevel+1)",
			Guard: func(e *program.Env) bool {
				_, ok := e.PeekMsg().(TrackReport)
				return ok
			},
			Action: func(e *program.Env, fx program.Effector) {
				r := e.TakeMsg().(TrackReport)
				fx.Compute(trackMsgSize)
				merge(e, r)
			},
		},
		{
			Name:      "forward",
			Condition: "outbox not empty",
			Effect:    "pop report; local merge if I lead its level, else send",
			Guard:     func(e *program.Env) bool { return len(e.Objs[trackOutbox].([]TrackReport)) > 0 },
			Action: func(e *program.Env, fx program.Effector) {
				box := e.Objs[trackOutbox].([]TrackReport)
				r := box[0]
				e.Objs[trackOutbox] = box[1:]
				if me := fx.Coord(); h.LeaderAt(me, r.Level) == me {
					merge(e, r)
					return
				}
				fx.Send(r.Level, trackMsgSize, r)
			},
		},
	}
	return spec
}

// TrackEstimate is one epoch's position estimate in grid-cell coordinates.
type TrackEstimate struct {
	Valid     bool    // false when nothing detected the target
	Col, Row  float64 // weighted centroid in cell units
	Weight    float64 // total detection mass
	Detectors int     // nodes that reported
	RuleCount int64
}

// RunTrackingEpoch runs one tracking round on the machine: every node
// samples once, reports flow up, and the root's accumulated moments give
// the estimate.
func RunTrackingEpoch(vm *varch.Machine, strength func(c geom.Coord) float64) (*TrackEstimate, error) {
	h := vm.Hier
	g := h.Grid
	insts := make([]*program.Instance, g.N())
	detectors := 0
	spec := TrackingProgram(TrackingConfig{Hier: h, Strength: strength})
	for _, c := range g.Coords() {
		fx := &trackFx{vm: vm, coord: c}
		if strength(c) > 0 {
			detectors++
		}
		inst := program.NewInstance(spec, fx)
		insts[g.Index(c)] = inst
		vm.Handle(c, func(msg varch.Message) {
			inst.OnMessage(msg.Payload)
		})
	}
	for _, inst := range insts {
		inst.RunToQuiescence()
	}
	vm.Kernel().Run()

	est := &TrackEstimate{Detectors: detectors}
	for _, inst := range insts {
		est.RuleCount += inst.Fired()
	}
	rootEnv := insts[g.Index(h.Root())].Env
	wx := rootEnv.Objs[VarTrackWX].([]int64)[h.Levels]
	wy := rootEnv.Objs[VarTrackWY].([]int64)[h.Levels]
	w := rootEnv.Objs[VarTrackW].([]int64)[h.Levels]
	if w > 0 {
		est.Valid = true
		est.Col = float64(wx) / float64(w)
		est.Row = float64(wy) / float64(w)
		est.Weight = float64(w) / 1000
	}
	// The moments have been copied out above; nothing retains the instances
	// or their Envs past this point, so they go back to the pool.
	for _, inst := range insts {
		inst.Release()
	}
	return est, nil
}

// trackFx adapts the machine to the tracking program; tracking exfiltrates
// nothing — the driver reads the root's moments after quiescence.
type trackFx struct {
	vm    *varch.Machine
	coord geom.Coord
}

func (f *trackFx) Send(level int, size int64, payload any) {
	f.vm.SendToLeader(f.coord, level, size, payload)
}
func (f *trackFx) Exfiltrate(any)      {}
func (f *trackFx) Compute(units int64) { f.vm.Compute(f.coord, units) }
func (f *trackFx) Sense(units int64)   { f.vm.Sense(f.coord, units) }
func (f *trackFx) Coord() geom.Coord   { return f.coord }
