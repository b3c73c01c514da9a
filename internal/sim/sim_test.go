package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyKernel(t *testing.T) {
	k := New()
	if k.Now() != 0 {
		t.Error("fresh kernel should start at time 0")
	}
	if k.Step() {
		t.Error("Step on empty kernel should return false")
	}
	if k.Run() != 0 {
		t.Error("Run on empty kernel should return 0")
	}
}

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != 30 {
		t.Errorf("final time = %d, want 30", k.Now())
	}
	if k.Fired() != 3 {
		t.Errorf("fired = %d, want 3", k.Fired())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of scheduling order: pos %d got %d", i, v)
		}
	}
}

func TestAfterRelativeToNow(t *testing.T) {
	k := New()
	var fireTime Time
	k.At(10, func() {
		k.After(5, func() { fireTime = k.Now() })
	})
	k.Run()
	if fireTime != 15 {
		t.Errorf("After(5) at t=10 fired at %d, want 15", fireTime)
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	h := k.At(10, func() { fired = true })
	if !h.Pending() {
		t.Error("fresh event should be pending")
	}
	k.Cancel(h)
	if h.Pending() {
		t.Error("cancelled event should not be pending")
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	k.Cancel(h) // double-cancel is a no-op
	k.Cancel(Handle{})
}

// Regression for the PR 1 free-list: cancelling a handle whose event
// already fired must be a no-op, even after the kernel has recycled the
// Event struct for a different scheduling.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	k := New()
	fired := false
	h := k.At(1, func() { fired = true })
	k.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if h.Pending() {
		t.Error("fired event should not be pending")
	}
	k.Cancel(h) // must not panic or corrupt the free list

	// The dangerous case: the fired event's struct is recycled for a new
	// scheduling, and then the stale handle is cancelled. The new event
	// must survive.
	secondFired := false
	h2 := k.After(1, func() { secondFired = true })
	k.Cancel(h) // stale handle, possibly aliasing h2's Event
	if !h2.Pending() {
		t.Fatal("stale cancel killed an unrelated recycled event")
	}
	k.Run()
	if !secondFired {
		t.Fatal("recycled event did not fire after stale cancel")
	}
	// Same for a handle that was cancelled (not fired) and then recycled.
	h3 := k.After(1, func() {})
	k.Cancel(h3)
	h4 := k.After(1, func() {})
	k.Cancel(h3)
	if !h4.Pending() {
		t.Fatal("stale cancel of a cancelled handle killed a recycled event")
	}
}

func TestCancelOwner(t *testing.T) {
	k := New()
	var fired []int
	k.AtOwned(1, 10, func() { fired = append(fired, 1) })
	k.AtOwned(2, 11, func() { fired = append(fired, 2) })
	k.AtOwned(1, 12, func() { fired = append(fired, 1) })
	k.At(13, func() { fired = append(fired, -1) })
	if n := k.CancelOwner(1); n != 2 {
		t.Fatalf("CancelOwner cancelled %d events, want 2", n)
	}
	if n := k.CancelOwner(1); n != 0 {
		t.Fatalf("second CancelOwner cancelled %d events, want 0", n)
	}
	if n := k.CancelOwner(NoOwner); n != 0 {
		t.Fatalf("CancelOwner(NoOwner) cancelled %d events, want 0", n)
	}
	k.Run()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != -1 {
		t.Fatalf("fired = %v, want [2 -1]", fired)
	}
}

func TestOwnedEventOrderingMatchesUnowned(t *testing.T) {
	k := New()
	var order []int
	k.AtOwned(7, 5, func() { order = append(order, 0) })
	k.At(5, func() { order = append(order, 1) })
	k.AfterOwned(9, 5, func() { order = append(order, 2) })
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestCancelOneOfMany(t *testing.T) {
	k := New()
	var got []int
	var events []Handle
	for i := 0; i < 10; i++ {
		i := i
		events = append(events, k.At(Time(i), func() { got = append(got, i) }))
	}
	k.Cancel(events[3])
	k.Cancel(events[7])
	k.Run()
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulingPastPanics(t *testing.T) {
	k := New()
	k.At(10, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	k.At(5, func() {})
}

func TestNilFirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil fire function should panic")
		}
	}()
	New().At(0, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	New().After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	k := New()
	var fired []Time
	for _, tm := range []Time{5, 10, 15, 20} {
		tm := tm
		k.At(tm, func() { fired = append(fired, tm) })
	}
	drained := k.RunUntil(12)
	if drained {
		t.Error("should not drain with events past deadline")
	}
	if len(fired) != 2 {
		t.Errorf("fired %v, want events at 5 and 10 only", fired)
	}
	if k.Now() != 12 {
		t.Errorf("clock should advance to deadline, got %d", k.Now())
	}
	if !k.RunUntil(100) {
		t.Error("should drain")
	}
	if len(fired) != 4 {
		t.Errorf("fired %v", fired)
	}
}

func TestCascadingEvents(t *testing.T) {
	// Events scheduled from within events keep relative order and time.
	k := New()
	var log []Time
	k.At(1, func() {
		log = append(log, k.Now())
		k.After(2, func() { log = append(log, k.Now()) })
		k.After(1, func() { log = append(log, k.Now()) })
	})
	k.Run()
	want := []Time{1, 2, 3}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestMonotonicClock(t *testing.T) {
	f := func(delays []uint8) bool {
		k := New()
		var times []Time
		for _, d := range delays {
			k.At(Time(d), func() { times = append(times, k.Now()) })
		}
		k.Run()
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeapStress(t *testing.T) {
	// Random schedule/cancel interleaving; verify everything not cancelled
	// fires exactly once, in time order.
	rng := rand.New(rand.NewSource(42))
	k := New()
	firedCount := make(map[int]int)
	var live []Handle
	total := 0
	for i := 0; i < 2000; i++ {
		id := i
		e := k.At(Time(rng.Intn(1000)), func() { firedCount[id]++ })
		total++
		live = append(live, e)
		if rng.Intn(4) == 0 && len(live) > 0 {
			victim := rng.Intn(len(live))
			k.Cancel(live[victim])
			live = append(live[:victim], live[victim+1:]...)
		}
	}
	k.Run()
	if int(k.Fired()) != len(live) {
		t.Errorf("fired %d events, %d were live", k.Fired(), len(live))
	}
	for id, n := range firedCount {
		if n != 1 {
			t.Errorf("event %d fired %d times", id, n)
		}
	}
}

func TestPendingCount(t *testing.T) {
	k := New()
	k.At(1, func() {})
	k.At(2, func() {})
	if k.npend != 2 {
		t.Errorf("Pending = %d, want 2", k.npend)
	}
	k.Step()
	if k.npend != 1 {
		t.Errorf("Pending = %d, want 1", k.npend)
	}
}

func TestNextAt(t *testing.T) {
	k := New()
	if _, ok := k.NextAt(); ok {
		t.Fatal("empty kernel reports a pending time")
	}
	k.At(7, func() {})
	k.At(3, func() {})
	k.At(3, func() {})
	if at, ok := k.NextAt(); !ok || at != 3 {
		t.Fatalf("NextAt = %d,%v, want 3,true", at, ok)
	}
	// Observing must not perturb the firing order.
	var fired []Time
	k.At(5, func() { fired = append(fired, 5) })
	for {
		at, ok := k.NextAt()
		if !ok {
			break
		}
		want := at
		k.Step()
		if k.Now() != want {
			t.Fatalf("fired at %d after NextAt said %d", k.Now(), want)
		}
	}
	if _, ok := k.NextAt(); ok {
		t.Fatal("drained kernel reports a pending time")
	}
}
