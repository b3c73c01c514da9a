// Package program is the reactive, event-driven node programming model of
// Section 4.3: a program is a set of guarded commands (Condition/Action
// clauses, paper Figure 4) over a per-node state environment, driven by an
// asynchronous stream of incoming messages. The paper assumes exactly this
// model is what code-generation frameworks for sensor nodes accept, so the
// synthesis stage (internal/synth) targets it.
//
// Semantics: rules are inspected in declaration order; the first rule whose
// guard holds fires; firing repeats until no guard holds (quiescence).
// Message arrival enqueues the message and re-enters the loop — the
// interpreter itself never blocks waiting for a specific message, which is
// what lets synthesized programs process incoming information incrementally
// the way Section 4.3 prescribes.
package program

import (
	"fmt"
	"strings"
	"sync"

	"wsnva/internal/geom"
)

// Env is a node's mutable state: integer, boolean, and object registers
// addressed by slot, plus the queue of received-but-unprocessed messages.
// A program names its slots with constants and declares how many of each
// kind it uses in its Spec, which sizes the registers at instantiation.
type Env struct {
	Ints  []int64
	Bools []bool
	Objs  []any
	inbox []any
}

// NewEnv returns an environment with no registers and an empty inbox.
func NewEnv() *Env { return &Env{} }

// slots returns s resized to n zeroed elements, reusing its backing array
// when it is large enough.
func slots[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Deliver enqueues a received message for rule consumption.
func (e *Env) Deliver(msg any) { e.inbox = append(e.inbox, msg) }

// PeekMsg returns the oldest undelivered message without consuming it, or
// nil if the inbox is empty. Guards use it to pattern-match.
func (e *Env) PeekMsg() any {
	if len(e.inbox) == 0 {
		return nil
	}
	return e.inbox[0]
}

// TakeMsg consumes and returns the oldest message. It panics on an empty
// inbox — actions must only take what their guard saw.
func (e *Env) TakeMsg() any {
	if len(e.inbox) == 0 {
		panic("program: TakeMsg on empty inbox")
	}
	// Shift in place rather than reslicing past the head, so the inbox
	// keeps its capacity and a steady message stream allocates nothing.
	m := e.inbox[0]
	n := copy(e.inbox, e.inbox[1:])
	e.inbox[n] = nil
	e.inbox = e.inbox[:n]
	return m
}

// Effector is the set of externally visible effects an action may perform.
// The virtual architecture (or the goroutine runtime) supplies the
// implementation; the program never sees anything lower-level.
type Effector interface {
	// Send transmits payload of the given size to the sender's level-k
	// group leader (the paper's group-communication primitive).
	Send(level int, size int64, payload any)
	// Exfiltrate delivers a final result out of the network.
	Exfiltrate(result any)
	// Compute charges local processing of the given data volume.
	Compute(units int64)
	// Sense charges one sensor reading.
	Sense(units int64)
	// Coord is the virtual coordinate of the node the instance runs on,
	// so one Spec can serve every node of a homogeneous program.
	Coord() geom.Coord
}

// Rule is one guarded command: a Condition/Action clause of Figure 4.
type Rule struct {
	Name      string
	Condition string // human-readable guard, for the synthesized listing
	Effect    string // human-readable action, for the synthesized listing
	Guard     func(e *Env) bool
	Action    func(e *Env, fx Effector)
}

// Spec is a synthesized program: register counts, initial state, and an
// ordered rule set.
type Spec struct {
	Title string
	Init  func(e *Env)
	Rules []Rule

	// Ints, Bools, and Objs are the number of Env register slots of each
	// kind the rules address.
	Ints, Bools, Objs int
}

// Listing renders the program in the Condition/Action style of paper
// Figure 4 — the artifact the synthesis stage hands to the node runtime.
func (s *Spec) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", s.Title)
	for _, r := range s.Rules {
		fmt.Fprintf(&b, "\nCondition : %s\nAction    : %s\n", r.Condition, indent(r.Effect))
	}
	return b.String()
}

func indent(s string) string {
	return strings.ReplaceAll(s, "\n", "\n            ")
}

// Instance is a running copy of a Spec on one node.
type Instance struct {
	Spec        *Spec
	Env         *Env
	fx          Effector
	fired       int64
	firedByRule []int64
	fireHook    func(rule string)
}

// SetFireHook installs an observer called with the rule's name each time a
// rule is about to fire (after its guard passed, before its action runs,
// so the firing notice precedes the action's own effects in a trace). Nil
// disables; the default. The observability drivers use this to emit
// RuleFire events without the interpreter knowing about tracing.
func (inst *Instance) SetFireHook(h func(rule string)) { inst.fireHook = h }

// instPool recycles released Instances (with their Envs) across runs. The
// experiment sweeps instantiate one program per grid cell per trial — tens
// of thousands of instances — and a recycled Env keeps its register
// arrays, so steady-state instantiation allocates only what Init does.
// The pool is shared by the parallel trial workers; every recycled
// instance is reset to exactly the state a fresh one starts in, so reuse
// never changes results.
var instPool = sync.Pool{New: func() any { return &Instance{Env: NewEnv()} }}

// NewInstance instantiates spec with the given effector and runs Init.
// Instances come from a recycling pool; hand them back with Release once
// the run is over and every result has been read out.
func NewInstance(spec *Spec, fx Effector) *Instance {
	inst := instPool.Get().(*Instance)
	inst.Spec = spec
	inst.fx = fx
	e := inst.Env
	e.Ints = slots(e.Ints, spec.Ints)
	e.Bools = slots(e.Bools, spec.Bools)
	e.Objs = slots(e.Objs, spec.Objs)
	inst.firedByRule = slots(inst.firedByRule, len(spec.Rules))
	if spec.Init != nil {
		spec.Init(inst.Env)
	}
	return inst
}

// Release returns inst to the instance pool. The caller promises the
// instance is quiescent and no longer referenced: values still held in its
// Env (result summaries, delivered payloads) survive — only the registers
// are cleared — but the instance itself must not be touched again. Release
// of an instance is optional; an un-released instance is simply garbage.
func (inst *Instance) Release() {
	e := inst.Env
	// Consumed inbox slots are already nil, so clearing the live ones
	// keeps the pool from retaining references to delivered payloads.
	clear(e.Objs)
	clear(e.inbox)
	e.inbox = e.inbox[:0]
	inst.Spec = nil
	inst.fx = nil
	inst.fired = 0
	inst.fireHook = nil
	instPool.Put(inst)
}

// Step evaluates guards in order and fires the first enabled rule.
// It reports whether any rule fired.
func (inst *Instance) Step() bool {
	for i := range inst.Spec.Rules {
		r := &inst.Spec.Rules[i]
		if r.Guard(inst.Env) {
			if inst.fireHook != nil {
				inst.fireHook(r.Name)
			}
			r.Action(inst.Env, inst.fx)
			inst.fired++
			inst.firedByRule[i]++
			return true
		}
	}
	return false
}

// FiredByRule returns per-rule firing counts, indexed like Spec.Rules —
// the synthesis-coverage report: a rule that never fires across a whole
// test campaign is dead weight or a latent bug.
func (inst *Instance) FiredByRule() []int64 {
	return append([]int64(nil), inst.firedByRule...)
}

// maxQuiescenceSteps bounds rule firings per activation; a correct program
// fires O(levels) rules per event.
const maxQuiescenceSteps = 1 << 16

// RunToQuiescence fires rules until none is enabled, returning the number
// fired. It panics after maxQuiescenceSteps firings — a livelocked rule
// set is a synthesis bug, not a runtime condition.
func (inst *Instance) RunToQuiescence() int {
	n := 0
	for inst.Step() {
		n++
		if n > maxQuiescenceSteps {
			panic(fmt.Sprintf("program: no quiescence after %d steps in %q", maxQuiescenceSteps, inst.Spec.Title))
		}
	}
	return n
}

// OnMessage delivers msg and runs to quiescence.
func (inst *Instance) OnMessage(msg any) int {
	inst.Env.Deliver(msg)
	return inst.RunToQuiescence()
}

// Fired returns the total number of rule firings on this instance.
func (inst *Instance) Fired() int64 { return inst.fired }
