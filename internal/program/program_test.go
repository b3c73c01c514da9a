package program

import (
	"strings"
	"testing"

	"wsnva/internal/geom"
)

// nullFx is an Effector that records calls.
type nullFx struct {
	sends  int
	exfils int
	comps  int64
	senses int64
}

func (f *nullFx) Send(level int, size int64, payload any) { f.sends++ }
func (f *nullFx) Exfiltrate(result any)                   { f.exfils++ }
func (f *nullFx) Compute(units int64)                     { f.comps += units }
func (f *nullFx) Sense(units int64)                       { f.senses += units }
func (f *nullFx) Coord() geom.Coord                       { return geom.Coord{} }

// Register slots of the counter program.
const (
	iN  = 0 // int: the count
	bGo = 0 // bool: counting
)

func counterSpec() *Spec {
	return &Spec{
		Title: "counter",
		Ints:  1,
		Bools: 1,
		Init:  func(e *Env) { e.Bools[bGo] = true },
		Rules: []Rule{
			{
				Name:      "tick",
				Condition: "go and n < 3",
				Effect:    "n++",
				Guard:     func(e *Env) bool { return e.Bools[bGo] && e.Ints[iN] < 3 },
				Action:    func(e *Env, fx Effector) { e.Ints[iN]++; fx.Compute(1) },
			},
			{
				Name:      "stop",
				Condition: "n = 3",
				Effect:    "go = false",
				Guard:     func(e *Env) bool { return e.Bools[bGo] && e.Ints[iN] == 3 },
				Action:    func(e *Env, fx Effector) { e.Bools[bGo] = false },
			},
		},
	}
}

func TestRunToQuiescence(t *testing.T) {
	fx := &nullFx{}
	inst := NewInstance(counterSpec(), fx)
	fired := inst.RunToQuiescence()
	if fired != 4 {
		t.Errorf("fired %d rules, want 4 (3 ticks + stop)", fired)
	}
	if inst.Env.Ints[iN] != 3 || inst.Env.Bools[bGo] {
		t.Errorf("final state n=%d go=%v", inst.Env.Ints[iN], inst.Env.Bools[bGo])
	}
	if fx.comps != 3 {
		t.Errorf("compute units = %d", fx.comps)
	}
	if inst.Fired() != 4 {
		t.Errorf("Fired() = %d", inst.Fired())
	}
	// Already quiescent: nothing fires.
	if inst.Step() {
		t.Error("quiescent instance should not fire")
	}
}

func TestFiredByRule(t *testing.T) {
	inst := NewInstance(counterSpec(), &nullFx{})
	inst.RunToQuiescence()
	byRule := inst.FiredByRule()
	if len(byRule) != 2 {
		t.Fatalf("got %d rule counters", len(byRule))
	}
	if byRule[0] != 3 || byRule[1] != 1 {
		t.Errorf("counts = %v, want [3 1]", byRule)
	}
	// The returned slice is a copy.
	byRule[0] = 99
	if inst.FiredByRule()[0] != 3 {
		t.Error("FiredByRule must return a copy")
	}
}

func TestRulePriorityOrder(t *testing.T) {
	var fired []string
	spec := &Spec{
		Title: "priority",
		Bools: 2,
		Init:  func(e *Env) { e.Bools[0] = true; e.Bools[1] = true },
		Rules: []Rule{
			{Name: "first", Guard: func(e *Env) bool { return e.Bools[0] },
				Action: func(e *Env, fx Effector) { fired = append(fired, "first"); e.Bools[0] = false }},
			{Name: "second", Guard: func(e *Env) bool { return e.Bools[1] },
				Action: func(e *Env, fx Effector) { fired = append(fired, "second"); e.Bools[1] = false }},
		},
	}
	inst := NewInstance(spec, &nullFx{})
	inst.RunToQuiescence()
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Errorf("firing order = %v", fired)
	}
}

func TestLivelockPanics(t *testing.T) {
	fired := 0
	spec := &Spec{
		Title: "livelock",
		Rules: []Rule{{
			Name:   "forever",
			Guard:  func(e *Env) bool { return true },
			Action: func(e *Env, fx Effector) { fired++ },
		}},
	}
	inst := NewInstance(spec, &nullFx{})
	defer func() {
		if recover() == nil {
			t.Error("livelock should panic")
		}
		if fired != maxQuiescenceSteps+1 {
			t.Errorf("panicked after %d firings, want the bound %d plus one", fired, maxQuiescenceSteps)
		}
	}()
	inst.RunToQuiescence()
}

// TestReleasedEnvIsResized recycles an instance into a bigger program:
// the registers must come back sized by the new Spec and zeroed.
func TestReleasedEnvIsResized(t *testing.T) {
	small := &Spec{Ints: 1, Bools: 1, Objs: 1,
		Init: func(e *Env) { e.Ints[0], e.Bools[0], e.Objs[0] = 7, true, "x" }}
	NewInstance(small, &nullFx{}).Release()
	e := NewInstance(&Spec{Ints: 3, Bools: 2, Objs: 2}, &nullFx{}).Env
	if len(e.Ints) != 3 || len(e.Bools) != 2 || len(e.Objs) != 2 || e.Ints[0] != 0 || e.Bools[0] || e.Objs[0] != nil {
		t.Fatalf("recycled registers %v %v %v, want zeroed 3/2/2", e.Ints, e.Bools, e.Objs)
	}
}

func TestInboxSemantics(t *testing.T) {
	e := NewEnv()
	if e.PeekMsg() != nil || len(e.inbox) != 0 {
		t.Error("fresh inbox should be empty")
	}
	e.Deliver("a")
	e.Deliver("b")
	if len(e.inbox) != 2 {
		t.Error("inbox should hold 2")
	}
	if e.PeekMsg().(string) != "a" {
		t.Error("peek should see oldest")
	}
	if e.TakeMsg().(string) != "a" || e.TakeMsg().(string) != "b" {
		t.Error("take order wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("TakeMsg on empty inbox should panic")
		}
	}()
	e.TakeMsg()
}

func TestOnMessageDrivesRules(t *testing.T) {
	spec := &Spec{
		Title: "echo",
		Ints:  1,
		Rules: []Rule{{
			Name:  "recv",
			Guard: func(e *Env) bool { return e.PeekMsg() != nil },
			Action: func(e *Env, fx Effector) {
				e.TakeMsg()
				e.Ints[0]++
				fx.Send(1, 1, nil)
			},
		}},
	}
	fx := &nullFx{}
	inst := NewInstance(spec, fx)
	inst.OnMessage("x")
	inst.OnMessage("y")
	if inst.Env.Ints[0] != 2 || fx.sends != 2 {
		t.Errorf("got=%d sends=%d", inst.Env.Ints[0], fx.sends)
	}
}

func TestListingFormat(t *testing.T) {
	spec := &Spec{
		Title: "demo",
		Rules: []Rule{{
			Name:      "r",
			Condition: "x = true",
			Effect:    "line1\nline2",
			Guard:     func(e *Env) bool { return false },
			Action:    func(e *Env, fx Effector) {},
		}},
	}
	listing := spec.Listing()
	if !strings.Contains(listing, "program demo") {
		t.Error("listing missing title")
	}
	if !strings.Contains(listing, "Condition : x = true") {
		t.Error("listing missing condition")
	}
	if !strings.Contains(listing, "line1\n            line2") {
		t.Errorf("multi-line action not indented:\n%s", listing)
	}
}
