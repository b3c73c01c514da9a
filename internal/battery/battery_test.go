package battery

import (
	"testing"

	"wsnva/internal/cost"
)

// TestConstructors covers the bank builder and its rejection edges.
func TestConstructors(t *testing.T) {
	b := Uniform(4, 100)
	if b.N() != 4 {
		t.Fatalf("N = %d, want 4", b.N())
	}
	for i := 0; i < 4; i++ {
		if b.capacity[i] != 100 || b.Drained(i) != 0 || b.Depleted(i) {
			t.Errorf("node %d: fresh bank in wrong state", i)
		}
	}

	for name, fn := range map[string]func(){
		"zero n":            func() { Uniform(0, 10) },
		"negative capacity": func() { Uniform(3, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			fn()
		}()
	}
}

// TestDyingGasp: the charge that crosses the budget is granted in full, the
// node dies inside that charge (callback fires synchronously), and every
// later charge is vetoed with the drain frozen.
func TestDyingGasp(t *testing.T) {
	b := Uniform(2, 100)
	var died []int
	b.OnDeplete(func(node int) { died = append(died, node) })

	if !b.Absorb(0, cost.Tx, 100) {
		t.Fatal("charge to exactly the capacity vetoed")
	}
	if b.Depleted(0) || len(died) != 0 {
		t.Fatal("node died at drain == capacity; depletion must be strict")
	}
	if !b.Absorb(0, cost.Tx, 7) {
		t.Fatal("the depleting charge must be granted (dying gasp)")
	}
	if !b.Depleted(0) || b.Deaths() != 1 || len(died) != 1 || died[0] != 0 {
		t.Fatalf("depletion not recorded: deaths=%d died=%v", b.Deaths(), died)
	}
	if b.Drained(0) != 107 {
		t.Errorf("drain %d, want 107 (capacity plus overshoot)", b.Drained(0))
	}

	if b.Absorb(0, cost.Rx, 1) {
		t.Error("charge to a depleted node granted")
	}
	if b.Drained(0) != 107 {
		t.Errorf("dead node's drain moved to %d", b.Drained(0))
	}
	if b.Deaths() != 1 || len(died) != 1 {
		t.Error("second depletion recorded for the same node")
	}
	if b.Depleted(1) || b.Drained(1) != 0 {
		t.Error("node 1 affected by node 0's depletion")
	}
}

// TestZeroCharges: zero-energy charges are granted but never deplete
// anyone, even at zero capacity.
func TestZeroCharges(t *testing.T) {
	b := Uniform(1, 0)
	if !b.Absorb(0, cost.Idle, 0) {
		t.Error("zero charge vetoed")
	}
	if b.Depleted(0) {
		t.Error("zero charge depleted a zero-capacity node")
	}
	if !b.Absorb(0, cost.Tx, 1) || !b.Depleted(0) {
		t.Error("first real charge to a zero-capacity node must be the dying gasp")
	}
}

// TestUnlimited: the infinite-capacity sentinel absorbs a large workload
// without a single death.
func TestUnlimited(t *testing.T) {
	b := Uniform(1, Unlimited)
	for i := 0; i < 1000; i++ {
		if !b.Absorb(0, cost.Tx, 1<<40) {
			t.Fatal("unlimited bank vetoed a charge")
		}
	}
	if b.Deaths() != 0 {
		t.Fatal("unlimited bank recorded a death")
	}
}

// TestLedgerMeterIntegration wires a Bank into a real Ledger: granted
// charges land, vetoed charges return 0 and record nothing, and a nil
// meter restores the plain path.
func TestLedgerMeterIntegration(t *testing.T) {
	l := cost.NewLedger(cost.NewUniform(), 2)
	b := Uniform(2, 10)
	l.SetMeter(b)

	if e := l.Charge(0, cost.Tx, 10); e != 10 {
		t.Fatalf("granted charge returned %d, want 10", e)
	}
	if e := l.Charge(0, cost.Tx, 5); e != 5 {
		t.Fatalf("dying gasp returned %d, want 5", e)
	}
	preOps := l.Units(cost.Tx)
	if e := l.Charge(0, cost.Tx, 3); e != 0 {
		t.Fatalf("post-death charge returned %d, want 0", e)
	}
	if l.Energy(0) != 15 {
		t.Errorf("ledger energy %d, want 15 (vetoed charge must not land)", l.Energy(0))
	}
	if l.Units(cost.Tx) != preOps {
		t.Error("vetoed charge still counted its op units")
	}
	if l.Energy(0) != cost.Energy(b.Drained(0)) {
		t.Errorf("ledger %d and bank %d disagree", l.Energy(0), b.Drained(0))
	}

	l.SetMeter(nil)
	if e := l.Charge(0, cost.Tx, 2); e != 2 {
		t.Errorf("detached ledger vetoed a charge (returned %d)", e)
	}
}
