package serve

import (
	"errors"
	"testing"
)

// TestSchedulerPanicFreesSlot submits a mission that panics and then a
// normal one to a one-worker scheduler: the first ticket must complete
// with ErrPanicked, its slot must be released, and the second mission
// must run.
func TestSchedulerPanicFreesSlot(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1})
	bad, err := s.Submit("a", func() { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	good, err := s.Submit("a", func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	bad.Wait()
	if !errors.Is(bad.Err(), ErrPanicked) {
		t.Errorf("panicking ticket Err() = %v, want ErrPanicked", bad.Err())
	}
	good.Wait()
	if !ran {
		t.Error("second mission never ran")
	}
	if good.Err() != nil {
		t.Errorf("normal ticket Err() = %v", good.Err())
	}
	st := s.Stats()
	if st.InFlight != 0 || st.Queued != 0 || st.Tenants["a"].Completed != 2 {
		t.Errorf("scheduler not drained: %+v", st)
	}
}

// TestSchedulerCancelQueued withdraws a queued ticket behind a running
// one: the queued mission must never run and its ticket must complete,
// while the running one cannot be cancelled.
func TestSchedulerCancelQueued(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 1})
	gate := make(chan struct{})
	running, err := s.Submit("a", func() { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit("b", func() { t.Error("cancelled mission ran") })
	if err != nil {
		t.Fatal(err)
	}
	if !queued.Cancel() {
		t.Fatal("Cancel of a queued ticket returned false")
	}
	<-queued.Done()
	if running.Cancel() {
		t.Error("Cancel of a running ticket returned true")
	}
	close(gate)
	running.Wait()
	st := s.Stats()
	if st.Tenants["b"].Cancelled != 1 || st.Tenants["b"].Completed != 0 || st.Tenants["a"].Completed != 1 {
		t.Errorf("tenant ledgers after cancel: %+v", st.Tenants)
	}
}
