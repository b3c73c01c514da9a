package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// defaultSeed is the workload seed every committed number uses;
// heldOutSeed is the seed a later performance claim must also hold on
// without having been tuned against it.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

const mib = 1 << 20

// counters accumulates the layers' own counts over a run's traced ops.
// A nil counters ignores additions, which is how untraced ops run.
type counters map[string]float64

func (c counters) add(name string, v float64) {
	if c != nil {
		c[name] += v
	}
}

// per divides counter num by counter den, 0 when den is 0.
func (c counters) per(num, den string) float64 {
	if c[den] == 0 {
		return 0
	}
	return c[num] / c[den]
}

// outcome is whatever a workload's op produced that its oracle checks.
type outcome any

// batch is a closed-loop workload: one client replays a seed-derived op
// list in whole passes, so every run with the same seed and --seconds
// does identical work.
type batch interface {
	name() string
	// plan regenerates the op list and any prebuilt inputs from seed.
	// Set-up spans go to rec with op -1.
	plan(seed int64, rec *recorder, c counters) error
	// size is the op list's length.
	size() int
	// nominal is the expected op wall. It only turns --seconds into a
	// pass count; it never stops a run.
	nominal() time.Duration
	// slo is the latency limit slo_met_frac counts against.
	slo() time.Duration
	// do runs op i of the list and returns its wall and its outputs.
	do(i, op int, rec *recorder, c counters) (time.Duration, outcome)
	// verify checks op i's outputs against the repository's oracles.
	verify(i int, out outcome) error
	// oracle runs the traced-run-only reference checks, before timing.
	oracle(c counters) error
	// layers adds the workload's per-layer metrics.
	layers(rep *report, lt layerTimes, c counters)
}

// passes is how many whole passes over an op list of length n fill the
// nominal run length.
func passes(cfg config, n int, nominal time.Duration) int {
	p := int(math.Round(float64(cfg.seconds) / (float64(n) * nominal.Seconds())))
	if p < 1 {
		p = 1
	}
	if cfg.trace && p%2 == 1 {
		p++ // see runBatch: traced runs need an even pass count
	}
	return p
}

// runBatch sets w up, replays its op list, and reports.
func runBatch(w batch, cfg config) (*report, error) {
	var rec *recorder
	var c counters
	if cfg.trace {
		rec, c = newRecorder(), counters{}
	}

	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = cfg.start
		}
		if err := w.plan(cfg.seed, rec, c); err != nil {
			return nil, err
		}
		w.do(0, -1, nil, nil) // warm-up, outside the timing
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		if err := w.oracle(c); err != nil {
			return nil, err
		}
	}

	rep := newReport()
	n := w.size()
	np := passes(cfg, n, w.nominal())
	var walls, traced, plain []float64
	ok, sloMet := 0, 0
	runtime.GC()
	g0 := readGo()
	peak := g0.liveBytes
	t0 := time.Now()
	op := 0
	for p := 0; p < np; p++ {
		for i := 0; i < n; i++ {
			// A traced run traces every other op, alternating by pass, so
			// over an even pass count each list item runs traced and
			// untraced equally often, interleaved against host drift.
			r, cc := (*recorder)(nil), counters(nil)
			if cfg.trace && (p+i)%2 == 1 {
				r, cc = rec, c
			}
			wall, out := w.do(i, op, r, cc)
			op++
			ms := float64(wall.Nanoseconds()) / 1e6
			walls = append(walls, ms)
			if r != nil {
				traced = append(traced, ms)
			} else {
				plain = append(plain, ms)
			}
			if err := w.verify(i, out); err != nil {
				rep.failed++
				fmt.Fprintf(os.Stderr, "wsnbench: %s op %d (list item %d): %v\n", w.name(), op-1, i, err)
			} else {
				ok++
				if wall <= w.slo() {
					sloMet++
				}
			}
			if live := readLive(); live > peak {
				peak = live
			}
		}
	}
	elapsed := time.Since(t0)
	g1 := readGo()
	rep.attempted = op

	if !cfg.trace {
		rep.set("latency_p50_ms", quantile(walls, 0.5), "ms")
		rep.set("latency_tail_ms", quantile(walls, float64(tailPercentile(len(walls)))/100), "ms")
		rep.set("throughput_ops_s", float64(ok)/elapsed.Seconds(), "1/s")
		rep.set("ok_frac", float64(ok)/float64(op), "frac")
		rep.set("alloc_mib_per_op", (g1.allocBytes-g0.allocBytes)/float64(op)/mib, "MiB")
		rep.set("setup_s", quantile(setups, 0.5), "s")
		rep.set("slo_met_frac", float64(sloMet)/float64(op), "frac")
		return rep, nil
	}

	lt := rec.layers()
	w.layers(rep, lt, c)
	goLayers(rep, g0, g1, peak, op)
	traceLayers(rep, w.name(), lt, traced, plain)
	if err := finishTrace(rep, rec, cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// goLayers reports the Go runtime's share of a timed loop of ops ops.
func goLayers(rep *report, g0, g1 goStats, peak float64, ops int) {
	rep.set("go.gc_cycles_per_op", (g1.gcCycles-g0.gcCycles)/float64(ops), "count")
	gc, user := g1.gcCPU-g0.gcCPU, g1.userCPU-g0.userCPU
	frac := 0.0
	if gc+user > 0 {
		frac = gc / (gc + user)
	}
	rep.set("go.gc_cpu_frac", frac, "frac")
	rep.set("go.heap_live_peak_mib", (peak-g0.liveBytes)/mib, "MiB")
}

// traceLayers reports the reconciliation and the tracing overhead:
// other_ms is the part of a traced op's wall no child span covers, and
// the overhead is the traced ops' median wall minus the untraced ops'.
func traceLayers(rep *report, name string, lt layerTimes, traced, plain []float64) {
	if lt.roots > 0 {
		rep.set(name+".other_ms", lt.rootSelf/float64(lt.roots)/1e6, "ms")
		rep.set("trace.op_ms", lt.rootWall/float64(lt.roots)/1e6, "ms")
	}
	if len(traced) > 0 && len(plain) > 0 {
		tm, pm := quantile(traced, 0.5), quantile(plain, 0.5)
		rep.set("trace.overhead_ms", tm-pm, "ms")
		rep.set("trace.overhead_frac", (tm-pm)/pm, "frac")
	}
}

// finishTrace writes the spans and fills every per-layer metric the
// workload does not exercise with 0, so each traced run prints the
// same names.
func finishTrace(rep *report, rec *recorder, cfg config) error {
	path := spansPath(cfg)
	if err := rec.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
		}
	}
	return nil
}
