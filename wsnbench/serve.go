package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wsnva/internal/serve"
)

// Shape of the `serve` workload: an open loop at a fixed arrival rate of
// about half the measured capacity of a GOMAXPROCS-worker server on
// 2 CPUs, against an in-process server on loopback.
const (
	serveRate    = 60 // requests per second
	serveTenants = 4
	// serveSLO is the latency limit slo_met_frac counts against, timed
	// from each request's due time.
	serveSLO = 500 * time.Millisecond
	// repeatGap keeps a repeat at least this far behind its first
	// submission, so the first has completed and nothing coalesces.
	repeatGap = 2 * time.Second
	// tailCap bounds the body suffix kept per reply for verification; a
	// result document is under 1 KiB.
	tailCap = 8 << 10
	// lateLimit flags a run whose generator sent its p99 request more
	// than one arrival interval late.
	lateLimit = time.Second / serveRate
)

// serveClasses are the first-time spec classes. Each block of
// serveBlock consecutive requests submits one of each, in a seeded
// order, at every fifth slot; the other 16 slots are cache hits
// (streamed repeats of traced specs). The 80% hit share puts the median
// well inside the hit mode and the tail percentile well inside the miss
// mode, and misses 5 slots (83 ms) apart do not queue behind each other
// on a healthy server, so the tail measures service time rather than
// the chance order of a seed's shuffle.
var serveClasses = []string{"label32", "label64", "flood16", "hazard"}

const serveBlock = 20

// sspec is one distinct mission spec.
type sspec struct {
	body  []byte
	class string
	// stream marks the traced label32 specs: their first submission and
	// every repeat ask for ?stream=1.
	stream bool
	reqs   []int // indices of the requests that submit it, first first
}

// sreq is one scheduled request.
type sreq struct {
	due    time.Duration
	tenant string
	spec   int
	repeat bool
}

// sreply is what the client saw for one request.
type sreply struct {
	status                 int
	cache                  string
	n                      int
	crc                    uint32
	tail                   []byte
	err                    error
	late                   time.Duration
	waited                 bool
	due, wrote, first, end time.Time
}

// serveWL holds one run's schedule and server.
type serveWL struct {
	specs []sspec
	reqs  []sreq
	srv   *serve.Server
	http  *http.Server
	url   string
	done  chan struct{} // closed when the listener's Serve returns
	cl    *http.Client
	// firstDone[k] is closed when spec k's first submission completed.
	firstDone []chan struct{}
}

// classSpec builds the spec of one first-time request.
func classSpec(class string, seed int64, k int) (serve.Spec, bool) {
	switch class {
	case "label32":
		return serve.Spec{Workload: "labeling", Side: 32, Seed: seed, Trace: true}, true
	case "label64":
		return serve.Spec{Workload: "labeling", Side: 64, Seed: seed}, false
	case "flood16":
		return serve.Spec{Workload: "flood", Side: 16, Density: 8, Floods: 4, Seed: seed}, false
	}
	s := serve.Spec{Workload: "flood", Side: 16, Density: 8, Floods: 4, Seed: seed}
	switch k % 3 {
	case 0:
		s.Loss = 0.1
	case 1:
		s.CrashFrac = 0.05
	default:
		s.ChurnRate = 2
	}
	return s, false
}

// planServe builds the schedule: n = serveRate·seconds requests at fixed
// spacing, block by block. Specs 0..len(serveClasses)-1 are the warm-up
// specs, one per class, submitted during set-up; early hits repeat spec
// 0 until a traced first submission is repeatGap old.
func planServe(seed int64, seconds int) (specs []sspec, reqs []sreq, err error) {
	rng := rand.New(rand.NewSource(seed))
	hazards := 0
	add := func(class string) error {
		s, stream := classSpec(class, rng.Int63n(1<<31)+1, hazards)
		if class == "hazard" {
			hazards++
		}
		body, err := json.Marshal(s)
		if err != nil {
			return err
		}
		specs = append(specs, sspec{body: body, class: class, stream: stream})
		return nil
	}
	for _, class := range serveClasses {
		if err := add(class); err != nil {
			return nil, nil, err
		}
	}
	interval := time.Second / serveRate
	blocks := max(1, serveRate*seconds/serveBlock)
	var traced []int // traced specs in order of their first due time
	for b := 0; b < blocks; b++ {
		order := rng.Perm(len(serveClasses))
		for slot := 0; slot < serveBlock; slot++ {
			kind := "hit"
			if slot%(serveBlock/len(serveClasses)) == 0 {
				kind = serveClasses[order[slot/(serveBlock/len(serveClasses))]]
			}
			r := sreq{due: time.Duration(len(reqs)) * interval, tenant: fmt.Sprintf("t%d", rng.Intn(serveTenants))}
			if kind == "hit" {
				ready := 0
				for ready < len(traced) && reqs[specs[traced[ready]].reqs[0]].due+repeatGap <= r.due {
					ready++
				}
				r.spec, r.repeat = 0, true
				if ready > 0 {
					r.spec = traced[rng.Intn(ready)]
				}
			} else {
				if err := add(kind); err != nil {
					return nil, nil, err
				}
				r.spec = len(specs) - 1
				if kind == "label32" {
					traced = append(traced, r.spec)
				}
			}
			specs[r.spec].reqs = append(specs[r.spec].reqs, len(reqs))
			reqs = append(reqs, r)
		}
	}
	return specs, reqs, nil
}

// start brings up the server on a loopback listener.
func (w *serveWL) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	nproc := runtime.GOMAXPROCS(0)
	w.srv = serve.NewServer(serve.Config{
		Sched: serve.SchedConfig{Workers: max(1, nproc-1), TenantSlots: 256, QueueBound: 1024},
		// Every distinct result stays cached, so the hit/miss pattern is
		// the same on every run.
		CacheBytes: 1 << 30,
	})
	w.http = &http.Server{Handler: w.srv}
	w.url = "http://" + ln.Addr().String() + "/v1/missions"
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.http.Serve(ln)
	}()
	w.cl = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
	}}
	return nil
}

// stop shuts the server down and waits for it.
func (w *serveWL) stop() {
	w.cl.CloseIdleConnections()
	w.http.Shutdown(context.Background())
	<-w.done
	w.srv.Close()
}

// bodyBufs recycles reply buffers, so the client's own allocation does
// not swamp the server's in alloc_mib_per_op and the GC counters.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// send submits one request and records what came back. due is the
// absolute time the request was scheduled for.
func (w *serveWL) send(body []byte, tenant string, stream bool, due time.Time) sreply {
	rp := sreply{due: due}
	url := w.url
	if stream {
		url += "?stream=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		rp.err = err
		return rp
	}
	req.Header.Set("X-Tenant", tenant)
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { rp.wrote = time.Now() },
		GotFirstResponseByte: func() { rp.first = time.Now() },
	}))
	resp, err := w.cl.Do(req)
	if err != nil {
		rp.err = err
		rp.end = time.Now()
		return rp
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rp.end = time.Now()
	data := buf.Bytes()
	rp.status, rp.cache, rp.err = resp.StatusCode, resp.Header.Get("X-Cache"), err
	rp.n, rp.crc = len(data), crc32.ChecksumIEEE(data)
	rp.tail = append([]byte(nil), data[max(0, len(data)-tailCap):]...)
	return rp
}

// runServe sets the server up, replays the schedule, verifies every
// reply against serve.Oneshot, and reports.
func runServe(cfg config) (*report, error) {
	w := &serveWL{}
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = cfg.start
		}
		if w.srv != nil {
			w.stop()
		}
		specs, reqs, err := planServe(cfg.seed, cfg.seconds)
		if err != nil {
			return nil, err
		}
		w.specs, w.reqs = specs, reqs
		if err := w.start(); err != nil {
			return nil, err
		}
		// Warm-up: the first submission of one spec per class, outside
		// the timing.
		for k := range serveClasses {
			rp := w.send(w.specs[k].body, "warmup", false, time.Now())
			if rp.err != nil || rp.status != http.StatusOK {
				w.stop()
				return nil, fmt.Errorf("warm-up request failed: status %d, %v", rp.status, rp.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.stop()

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	w.firstDone = make([]chan struct{}, len(w.specs))
	for k := range w.firstDone {
		w.firstDone[k] = make(chan struct{})
	}
	for k := range serveClasses {
		close(w.firstDone[k])
	}

	cache0, runs0 := w.srv.Cache().Stats(), w.srv.Runs()
	replies := make([]sreply, len(w.reqs))
	runtime.GC()
	g0 := readGo()
	var peak atomic.Int64
	peak.Store(int64(g0.liveBytes))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range w.reqs {
		due := t0.Add(w.reqs[i].due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := w.reqs[i]
			late := time.Since(due)
			waited := false
			if r.repeat {
				select {
				case <-w.firstDone[r.spec]:
				default:
					waited = true
					<-w.firstDone[r.spec]
				}
			}
			sp := w.specs[r.spec]
			rp := w.send(sp.body, r.tenant, sp.stream, due)
			rp.late, rp.waited = late, waited
			replies[i] = rp
			if !r.repeat {
				close(w.firstDone[r.spec])
			}
			if cfg.trace && i%2 == 1 {
				// The root starts when the request was due; its children
				// start when the generator got to it, so other_ms is the
				// generator's lateness.
				root := rec.add("serve", i, -1, due, rp.end)
				if !rp.wrote.IsZero() && !rp.first.IsZero() {
					rec.add("loadgen.send", i, root, due.Add(late), rp.wrote)
					rec.add("serve.respond", i, root, rp.wrote, rp.first)
					rec.add("loadgen.read", i, root, rp.first, rp.end)
				}
			}
			live := int64(readLive())
			for p := peak.Load(); live > p && !peak.CompareAndSwap(p, live); p = peak.Load() {
			}
		}(i)
	}
	wg.Wait()
	g1 := readGo()
	var last time.Time
	for _, rp := range replies {
		if rp.end.After(last) {
			last = rp.end
		}
	}
	elapsed := last.Sub(t0)

	rep := newReport()
	rep.attempted = len(w.reqs)
	v := w.verify(replies, cfg.trace)
	w.checkPlan(rep, replies, cache0, runs0)

	ok, sloMet := 0, 0
	var lat, lates, traced, plain, hits, misses []float64
	for i, rp := range replies {
		ms := float64(rp.end.Sub(rp.due).Nanoseconds()) / 1e6
		lat = append(lat, ms)
		lates = append(lates, float64(rp.late.Nanoseconds())/1e6)
		if cfg.trace && i%2 == 1 {
			traced = append(traced, ms)
		} else {
			plain = append(plain, ms)
		}
		if w.reqs[i].repeat {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
		if v.bad[i] != nil {
			rep.failed++
			continue
		}
		ok++
		if rp.end.Sub(rp.due) <= serveSLO {
			sloMet++
		}
	}
	for i, err := range v.bad {
		if err != nil && i < 20 {
			fmt.Fprintf(os.Stderr, "wsnbench: serve request %d: %v\n", i, err)
		}
	}
	lateP99 := quantile(lates, 0.99)
	if lateP99 > float64(lateLimit.Nanoseconds())/1e6 {
		fmt.Printf("WARNING: load generator fell behind: p99 send lateness %.3f ms > %v\n", lateP99, lateLimit)
	}

	if !cfg.trace {
		rep.set("latency_p50_ms", quantile(lat, 0.5), "ms")
		rep.set("latency_tail_ms", quantile(lat, float64(tailPercentile(len(lat)))/100), "ms")
		rep.set("throughput_ops_s", float64(ok)/elapsed.Seconds(), "1/s")
		rep.set("ok_frac", float64(ok)/float64(len(replies)), "frac")
		rep.set("alloc_mib_per_op", (g1.allocBytes-g0.allocBytes)/float64(len(replies))/mib, "MiB")
		rep.set("setup_s", quantile(setups, 0.5), "s")
		rep.set("slo_met_frac", float64(sloMet)/float64(len(replies)), "frac")
		return rep, nil
	}

	n := float64(len(replies))
	rep.set("serve.decode_us", v.c.per("decode_ns", "specs")/1e3, "us")
	rep.set("serve.normalize_us", v.c.per("normalize_ns", "specs")/1e3, "us")
	rep.set("serve.digest_us", v.c.per("digest_ns", "specs")/1e3, "us")
	for _, class := range []string{"label32", "label64", "flood16", "hazard"} {
		rep.set("serve.execute_ms."+class, v.c.per("exec_ns."+class, "specs."+class)/1e6, "ms")
	}
	rep.set("serve.hit_ms", quantile(hits, 0.5), "ms")
	rep.set("serve.miss_ms", quantile(misses, 0.5), "ms")
	rep.set("serve.overhead_ms", v.c.per("overhead_ns", "misses")/1e6, "ms")
	hitCount := 0
	for _, rp := range replies {
		if rp.cache == "hit" {
			hitCount++
		}
	}
	rep.set("serve.cache_hit_frac", float64(hitCount)/n, "frac")
	rep.set("serve.runs_per_request", float64(w.srv.Runs()-runs0)/n, "count")
	st := w.srv.Sched().Stats()
	var rejected int64
	for _, ts := range st.Tenants {
		rejected += ts.Rejected
	}
	rep.set("serve.rejected_frac", float64(rejected)/n, "frac")
	rep.set("serve.queue_peak", float64(st.MaxQueued), "count")
	rep.set("serve.in_flight_peak", float64(st.MaxInFlight), "count")
	rep.set("loadgen.lateness_ms", lateP99, "ms")
	lt := rec.layers()
	rep.set("serve.respond_ms", lt.selfMs("serve.respond"), "ms")
	rep.set("loadgen.send_ms", lt.selfMs("loadgen.send"), "ms")
	rep.set("loadgen.read_ms", lt.selfMs("loadgen.read"), "ms")
	goLayers(rep, g0, g1, float64(peak.Load()), len(replies))
	traceLayers(rep, "serve", lt, traced, plain)
	if err := finishTrace(rep, rec, cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkPlan asserts the run went exactly as scheduled: every first
// submission missed and ran once, every repeat hit, nothing was evicted.
// A departure makes the run incorrect.
func (w *serveWL) checkPlan(rep *report, replies []sreply, cache0 serve.CacheStats, runs0 int64) {
	firsts := len(w.specs) - len(serveClasses)
	repeats := len(w.reqs) - firsts
	hits, misses, waited := 0, 0, 0
	for _, rp := range replies {
		switch rp.cache {
		case "hit":
			hits++
		case "miss":
			misses++
		}
		if rp.waited {
			waited++
		}
	}
	cs := w.srv.Cache().Stats()
	runs := w.srv.Runs() - runs0
	var errs []error
	if hits != repeats || misses != firsts {
		errs = append(errs, fmt.Errorf("%d hits and %d misses, planned %d and %d", hits, misses, repeats, firsts))
	}
	if cs.Hits-cache0.Hits != int64(repeats) || runs != int64(firsts) {
		errs = append(errs, fmt.Errorf("server counted %d hits and %d runs, planned %d and %d",
			cs.Hits-cache0.Hits, runs, repeats, firsts))
	}
	if cs.Entries != len(w.specs) {
		errs = append(errs, fmt.Errorf("cache holds %d entries, planned %d (evictions)", cs.Entries, len(w.specs)))
	}
	if waited > 0 {
		// The wait kept the plan, but the schedule no longer ran as
		// designed: the server fell more than repeatGap behind.
		fmt.Printf("WARNING: %d repeats were due before their first submission completed\n", waited)
	}
	if err := errors.Join(errs...); err != nil {
		rep.broken = true
		fmt.Fprintf(os.Stderr, "wsnbench: serve run departed from its plan: %v\n", err)
	}
}

// verdict is the verification pass's outcome: one error per request
// (nil when its body verified) and, on traced runs, stage timings.
type verdict struct {
	bad []error
	c   counters
}

// verify recomputes every distinct spec with the serve package's own
// one-shot path, outside the timed window and on GOMAXPROCS goroutines,
// and checks each reply against it: a plain reply must equal the result
// document, a streamed hit the canonical trace, a blank line and the
// result, and a streamed first submission must end with the blank line
// and the result.
func (w *serveWL) verify(replies []sreply, traced bool) verdict {
	v := verdict{bad: make([]error, len(replies)), c: counters{}}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(w.specs) {
					return
				}
				sp := w.specs[k]
				c := counters{}
				result, tr, err := oneshot(sp.body, c, sp.class)
				for _, i := range sp.reqs {
					e := err
					if e == nil {
						e = checkReply(replies[i], result, tr, w.reqs[i].repeat, sp.stream)
					}
					if e == nil && replies[i].cache == "miss" {
						c.add("overhead_ns", float64(replies[i].end.Sub(replies[i].wrote).Nanoseconds())-c["exec_ns."+sp.class])
						c.add("misses", 1)
					}
					v.bad[i] = e // each request belongs to one spec
				}
				if traced {
					mu.Lock()
					for name, x := range c {
						v.c[name] += x
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return v
}

// oneshot returns serve.Oneshot's bytes for body, timing into c the
// request stages the server runs before execution and the one-shot call
// itself, which is all execution but for microseconds of decoding.
func oneshot(body []byte, c counters, class string) (result, tr []byte, err error) {
	t := time.Now()
	spec, err := serve.DecodeSpec(bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	c.add("decode_ns", float64(time.Since(t).Nanoseconds()))
	t = time.Now()
	norm := spec.Normalize()
	c.add("normalize_ns", float64(time.Since(t).Nanoseconds()))
	t = time.Now()
	norm.Digest()
	c.add("digest_ns", float64(time.Since(t).Nanoseconds()))
	t = time.Now()
	result, tr, err = serve.Oneshot(body)
	c.add("exec_ns."+class, float64(time.Since(t).Nanoseconds()))
	c.add("specs."+class, 1)
	c.add("specs", 1)
	return result, tr, err
}

// checkReply compares one reply with the one-shot result and trace.
// hit says the reply is a streamed cache hit (the canonical trace, a
// blank line, the result); otherwise a streamed reply is a first
// submission (live events, a blank line, the result).
func checkReply(rp sreply, result, tr []byte, hit, stream bool) error {
	switch {
	case rp.err != nil:
		return rp.err
	case rp.status != http.StatusOK:
		return fmt.Errorf("status %d", rp.status)
	case hit:
		want := crc32.Update(crc32.Update(crc32.ChecksumIEEE(tr), crc32.IEEETable, []byte("\n")), crc32.IEEETable, result)
		if rp.n != len(tr)+1+len(result) || rp.crc != want {
			return fmt.Errorf("streamed hit differs from the one-shot trace and result (%d bytes, want %d)", rp.n, len(tr)+1+len(result))
		}
	case stream:
		if !bytes.HasSuffix(rp.tail, append([]byte("\n\n"), result...)) && !(rp.n == len(result)+1 && bytes.Equal(rp.tail[1:], result)) {
			return fmt.Errorf("streamed reply does not end with the one-shot result")
		}
	default:
		if rp.n != len(result) || !bytes.Equal(rp.tail, result) {
			return fmt.Errorf("reply differs from the one-shot result")
		}
	}
	return nil
}
