package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Admission errors, mapped to HTTP statuses by the handlers: a tenant
// over its own cap gets 429 (its problem), a full global queue gets 503
// (the service's problem).
var (
	ErrTenantBusy = errors.New("serve: tenant admission cap reached")
	ErrQueueFull  = errors.New("serve: mission queue full")
	ErrClosed     = errors.New("serve: scheduler closed")
	// ErrPanicked wraps the value a mission panicked with; the handlers
	// report it as a server error.
	ErrPanicked = errors.New("serve: mission panicked")
)

// SchedConfig bounds the scheduler. Zero values select the defaults.
type SchedConfig struct {
	// Workers is the number of missions simulated concurrently
	// (0 = GOMAXPROCS).
	Workers int
	// TenantSlots caps one tenant's outstanding (queued + running)
	// missions; past it, Submit returns ErrTenantBusy (default 4).
	TenantSlots int
	// QueueBound caps missions queued across all tenants; past it,
	// Submit returns ErrQueueFull (default 64).
	QueueBound int
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.TenantSlots <= 0 {
		c.TenantSlots = 4
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	return c
}

// Scheduler admits missions per tenant and dispatches them fairly:
// admission is a per-tenant outstanding cap plus a global queue bound,
// and dispatch round-robins one mission per tenant per turn onto a free
// worker goroutine. A tenant with one queued mission therefore
// waits at most (active tenants - 1) dispatches regardless of how hard
// another tenant floods its own queue — the no-starvation property the
// race suite asserts.
type Scheduler struct {
	workers int
	cfg     SchedConfig

	mu       sync.Mutex
	tenants  map[string]*tenantQueue
	ring     []*tenantQueue // tenants with queued work, round-robin order
	cursor   int
	queued   int
	inFlight int
	closed   bool

	maxQueued   int
	maxInFlight int
	dispatched  int64
}

type tenantQueue struct {
	name  string
	queue []*Ticket
	// outstanding counts queued + running missions; the admission cap
	// compares against it.
	outstanding    int
	maxOutstanding int
	admitted       int64
	rejected       int64
	completed      int64
	cancelled      int64
}

// Ticket is one admitted mission's handle, cancellable while still
// queued.
type Ticket struct {
	sched  *Scheduler
	tq     *tenantQueue
	run    func()
	done   chan struct{}
	queued bool  // guarded by sched.mu
	err    error // set before done closes
}

// Done returns a channel closed when the mission finished or the ticket
// was cancelled.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the mission finishes or the ticket is cancelled.
func (t *Ticket) Wait() { <-t.done }

// Err reports, once Done is closed, an error wrapping ErrPanicked if the
// mission panicked, and nil otherwise.
func (t *Ticket) Err() error { return t.err }

// Cancel withdraws a still-queued mission and reports whether it will
// never run. A mission already dispatched runs to completion — the
// engines are not preemptible — and Cancel returns false.
func (t *Ticket) Cancel() bool {
	s := t.sched
	s.mu.Lock()
	if !t.queued {
		s.mu.Unlock()
		return false
	}
	t.queued = false
	q := t.tq.queue
	for i, qt := range q {
		if qt == t {
			t.tq.queue = append(q[:i], q[i+1:]...)
			break
		}
	}
	t.tq.outstanding--
	t.tq.cancelled++
	s.queued--
	if len(t.tq.queue) == 0 {
		s.dropFromRing(t.tq)
	}
	s.mu.Unlock()
	close(t.done)
	return true
}

// NewScheduler builds a scheduler with its own worker budget.
func NewScheduler(cfg SchedConfig) *Scheduler {
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{
		workers: workers,
		cfg:     cfg,
		tenants: make(map[string]*tenantQueue),
	}
}

// Workers reports the concurrent-mission budget.
func (s *Scheduler) Workers() int { return s.workers }

// Submit admits run under the tenant's cap and the global queue bound,
// enqueues it, and returns its ticket. The error is non-nil exactly
// when the mission was refused (and run will never execute).
func (s *Scheduler) Submit(tenant string, run func()) (*Ticket, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	tq := s.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{name: tenant}
		s.tenants[tenant] = tq
	}
	if tq.outstanding >= s.cfg.TenantSlots {
		tq.rejected++
		s.mu.Unlock()
		return nil, ErrTenantBusy
	}
	if s.queued >= s.cfg.QueueBound {
		tq.rejected++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	t := &Ticket{sched: s, tq: tq, run: run, done: make(chan struct{}), queued: true}
	if len(tq.queue) == 0 {
		s.ring = append(s.ring, tq)
	}
	tq.queue = append(tq.queue, t)
	tq.outstanding++
	tq.admitted++
	if tq.outstanding > tq.maxOutstanding {
		tq.maxOutstanding = tq.outstanding
	}
	s.queued++
	if s.queued > s.maxQueued {
		s.maxQueued = s.queued
	}
	s.pump()
	s.mu.Unlock()
	return t, nil
}

// pump dispatches queued missions while worker budget remains, taking
// one mission from each ring tenant in turn. Caller holds s.mu.
func (s *Scheduler) pump() {
	for s.inFlight < s.workers && len(s.ring) > 0 {
		if s.cursor >= len(s.ring) {
			s.cursor = 0
		}
		tq := s.ring[s.cursor]
		t := tq.queue[0]
		tq.queue = tq.queue[1:]
		t.queued = false
		s.queued--
		if len(tq.queue) == 0 {
			s.dropFromRing(tq)
		} else {
			s.cursor++
		}
		s.inFlight++
		if s.inFlight > s.maxInFlight {
			s.maxInFlight = s.inFlight
		}
		s.dispatched++
		go func() {
			defer s.finish(t)
			// A panicking mission releases its slot and fails its own
			// ticket instead of taking the server down.
			defer func() {
				if r := recover(); r != nil {
					t.err = fmt.Errorf("%w: %v", ErrPanicked, r)
				}
			}()
			t.run()
		}()
	}
}

// dropFromRing removes a drained tenant from the round-robin ring,
// keeping the cursor on the next tenant. Caller holds s.mu.
func (s *Scheduler) dropFromRing(tq *tenantQueue) {
	for i, r := range s.ring {
		if r == tq {
			s.ring = append(s.ring[:i], s.ring[i+1:]...)
			if s.cursor > i {
				s.cursor--
			}
			return
		}
	}
}

func (s *Scheduler) finish(t *Ticket) {
	s.mu.Lock()
	s.inFlight--
	t.tq.outstanding--
	t.tq.completed++
	s.pump()
	s.mu.Unlock()
	close(t.done)
}

// Close refuses further submissions. Queued and running missions are
// left to drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// TenantStats is one tenant's admission ledger.
type TenantStats struct {
	Admitted       int64 `json:"admitted"`
	Rejected       int64 `json:"rejected"`
	Completed      int64 `json:"completed"`
	Cancelled      int64 `json:"cancelled"`
	Outstanding    int   `json:"outstanding"`
	MaxOutstanding int   `json:"max_outstanding"`
}

// SchedStats snapshots the scheduler, served by /v1/stats and asserted
// by the race suite (MaxInFlight <= Workers, MaxQueued <= QueueBound,
// per-tenant MaxOutstanding <= TenantSlots).
type SchedStats struct {
	Workers     int                    `json:"workers"`
	TenantSlots int                    `json:"tenant_slots"`
	QueueBound  int                    `json:"queue_bound"`
	Queued      int                    `json:"queued"`
	InFlight    int                    `json:"in_flight"`
	MaxQueued   int                    `json:"max_queued"`
	MaxInFlight int                    `json:"max_in_flight"`
	Dispatched  int64                  `json:"dispatched"`
	Tenants     map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedStats{
		Workers:     s.workers,
		TenantSlots: s.cfg.TenantSlots,
		QueueBound:  s.cfg.QueueBound,
		Queued:      s.queued,
		InFlight:    s.inFlight,
		MaxQueued:   s.maxQueued,
		MaxInFlight: s.maxInFlight,
		Dispatched:  s.dispatched,
		Tenants:     make(map[string]TenantStats, len(s.tenants)),
	}
	for name, tq := range s.tenants {
		st.Tenants[name] = TenantStats{
			Admitted: tq.admitted, Rejected: tq.rejected,
			Completed: tq.completed, Cancelled: tq.cancelled,
			Outstanding: tq.outstanding, MaxOutstanding: tq.maxOutstanding,
		}
	}
	return st
}
