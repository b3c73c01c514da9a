package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// kernelAPI is the surface the differential tests exercise; *Kernel (the
// ladder queue) and *Reference (the retained heap oracle) both satisfy it.
type kernelAPI interface {
	At(t Time, fire func()) Handle
	AtOwned(owner int, t Time, fire func()) Handle
	After(d Time, fire func()) Handle
	Cancel(h Handle)
	CancelOwner(owner int) int
	Step() bool
	Run() Time
	RunUntil(deadline Time) bool
	Now() Time
	Fired() int64
}

var (
	_ kernelAPI = (*Kernel)(nil)
	_ kernelAPI = (*Reference)(nil)
)

// fireRec is one observed event execution: which scheduling fired, at what
// simulated time, owned by whom, and how many events had fired before it.
// Two kernels replaying the same script must produce identical sequences —
// that is the total-order contract the ladder queue claims to preserve.
type fireRec struct {
	id    int
	at    Time
	owner int
	nth   int64
}

// driveScript runs a pseudorandom workload derived from seed on k and
// returns the fire log. The script is a pure function of (seed, nOps), so
// running it on two kernels replays identical operations: near-horizon and
// far-future schedules (beyond the ladder window), equal-timestamp bursts,
// cascading reschedules from inside handlers, handle cancels (fresh, stale,
// double), CancelOwner storms, and mid-script Step/RunUntil calls that
// advance the window and then schedule behind it.
func driveScript(k kernelAPI, seed int64, nOps int) []fireRec {
	rng := rand.New(rand.NewSource(seed))
	var log []fireRec
	var handles []Handle
	nextID := 0

	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		owner := NoOwner
		if rng.Intn(2) == 0 {
			owner = rng.Intn(8)
		}
		var t Time
		switch rng.Intn(4) {
		case 0: // same-timestamp burst fodder: a handful of shared times
			t = k.Now() + Time(rng.Intn(4)*17)
		case 1: // near horizon
			t = k.Now() + Time(rng.Intn(200))
		case 2: // far future: beyond the ladder window, lands in the rung
			t = k.Now() + Time(1500+rng.Intn(4000))
		case 3: // immediate
			t = k.Now()
		}
		fire := func() {
			log = append(log, fireRec{id: id, at: k.Now(), owner: owner, nth: k.Fired()})
			// Cascade deterministically off the event's own identity so
			// both kernels replay the same child schedules.
			if depth < 2 && id%3 == 0 {
				child := nextID
				nextID++
				k.At(k.Now()+Time(child%37), func() {
					log = append(log, fireRec{id: child, at: k.Now(), owner: NoOwner, nth: k.Fired()})
				})
			}
		}
		var h Handle
		if owner == NoOwner {
			h = k.At(t, fire)
		} else {
			h = k.AtOwned(owner, t, fire)
		}
		handles = append(handles, h)
	}

	for i := 0; i < nOps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			schedule(0)
		case 5: // burst of equal timestamps
			n := 2 + rng.Intn(6)
			for j := 0; j < n; j++ {
				schedule(0)
			}
		case 6:
			if len(handles) > 0 {
				k.Cancel(handles[rng.Intn(len(handles))]) // possibly stale: must be a no-op
			}
		case 7:
			k.CancelOwner(rng.Intn(8))
		case 8:
			k.Step()
		case 9:
			// Advance the clock past pending work, then schedule behind the
			// window the ladder may have moved: the pre-base overflow case.
			k.RunUntil(k.Now() + Time(rng.Intn(400)))
		}
	}
	k.Run()
	return log
}

// TestDifferentialFixedSeeds replays a battery of fixed-seed scripts on the
// ladder kernel and the reference heap and demands identical fire logs.
func TestDifferentialFixedSeeds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 99, 1234, 987654321, -5, -77} {
		got := driveScript(New(), seed, 400)
		want := driveScript(NewReference(), seed, 400)
		if len(got) != len(want) {
			t.Fatalf("seed %d: ladder fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: fire %d diverged: ladder %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialQuick is the same contract as a testing/quick property
// over arbitrary seeds and script lengths.
func TestDifferentialQuick(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		nOps := 20 + int(n)
		got := driveScript(New(), seed, nOps)
		want := driveScript(NewReference(), seed, nOps)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFarFutureOverflow pins the two-tier boundary directly: events beyond
// the ladder window fire in exact (At, seq) order interleaved with
// near-horizon ones, including an At collision between a rung event and a
// bucketed event scheduled later.
func TestFarFutureOverflow(t *testing.T) {
	k := New()
	var order []int
	k.At(5000, func() { order = append(order, 3) }) // rung (far future)
	k.At(10, func() {
		order = append(order, 1)
		// Scheduled once the window has advanced: same timestamp as the
		// rung event above but a later seq, so it must fire second.
		k.At(5000, func() { order = append(order, 4) })
	})
	k.At(20, func() { order = append(order, 2) })
	k.Run()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 5000 {
		t.Errorf("final time = %d, want 5000", k.Now())
	}
}

// TestScheduleBehindWindow exercises the pre-base rung: RunUntil drags the
// clock (and with it the window anchor, once events fire) forward, then a
// schedule lands between now and the window start.
func TestScheduleBehindWindow(t *testing.T) {
	k := New()
	var order []Time
	rec := func() { order = append(order, k.Now()) }
	k.At(2000, rec) // anchors far ahead once everything nearer drains
	k.At(1, rec)
	k.RunUntil(1500) // fires t=1; clock now 1500, window anchored at 2000 next
	k.At(1600, rec)  // behind the (re-anchored) window start
	k.At(2000, rec)  // ties the first far event, later seq
	k.Run()
	want := []Time{1, 1600, 2000, 2000}
	if len(order) != len(want) {
		t.Fatalf("fired at %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired at %v, want %v", order, want)
		}
	}
}

// TestWindowReanchorOnEmpty verifies a drained kernel re-anchors its window
// at the next schedule, keeping steady-state traffic in the O(1) tier after
// arbitrarily long quiet gaps.
func TestWindowReanchorOnEmpty(t *testing.T) {
	k := New()
	k.At(3, func() {})
	k.Run()
	if k.RunUntil(100000) != true {
		t.Fatal("empty kernel should report drained")
	}
	fired := false
	k.After(7, func() { fired = true })
	if k.npend != 1 {
		t.Fatalf("Pending = %d, want 1", k.npend)
	}
	k.Run()
	if !fired {
		t.Fatal("event scheduled after a long quiet gap never fired")
	}
	if k.Now() != 100007 {
		t.Errorf("final time = %d, want 100007", k.Now())
	}
}

// TestCancelOwnerAcrossTiers cancels owned events sitting in both the
// bucket tier and the overflow rung in one call.
func TestCancelOwnerAcrossTiers(t *testing.T) {
	k := New()
	var fired []int
	k.AtOwned(4, 10, func() { fired = append(fired, 10) })     // bucket tier
	k.AtOwned(4, 9000, func() { fired = append(fired, 9000) }) // overflow rung
	k.AtOwned(5, 11, func() { fired = append(fired, 11) })     // survivor
	k.AtOwned(5, 9001, func() { fired = append(fired, 9001) }) // survivor
	if n := k.CancelOwner(4); n != 2 {
		t.Fatalf("CancelOwner cancelled %d, want 2", n)
	}
	k.Run()
	if len(fired) != 2 || fired[0] != 11 || fired[1] != 9001 {
		t.Fatalf("fired = %v, want [11 9001]", fired)
	}
}
