package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call. Spans of one op share Op; Parent is -1 for an op's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced ops run.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	return id
}

// layerTimes is what the spans say about each span name: how often it
// ran and its total wall and self time (wall minus the part of its
// interval that its children cover). Roots are the spans of whole ops;
// set-up spans carry op -1 and are not roots.
type layerTimes struct {
	count              map[string]int
	self               map[string]float64 // nanoseconds
	roots              int
	rootWall, rootSelf float64
}

func (r *recorder) layers() layerTimes {
	lt := layerTimes{count: map[string]int{}, self: map[string]float64{}}
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range r.spans {
		wall := float64(s.End - s.Start)
		self := wall - covered(s, children[s.ID])
		lt.count[s.Name]++
		lt.self[s.Name] += self
		if s.Parent < 0 && s.Op >= 0 {
			lt.roots++
			lt.rootWall += wall
			lt.rootSelf += self
		}
	}
	return lt
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, lo, hi int64
	lo, hi = -1, -1
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if a > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = a, b
		} else if b > hi {
			hi = b
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return float64(total)
}

// selfMs is the mean self time of one call to name, in milliseconds.
func (lt layerTimes) selfMs(name string) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return lt.self[name] / float64(lt.count[name]) / 1e6
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// tailPercentile is the highest whole percentile that leaves at least
// ten of n samples above it.
func tailPercentile(n int) int {
	p := int(math.Floor(100 * float64(n-10) / float64(n)))
	if p < 50 {
		p = 50
	}
	return p
}

// goStats snapshots the Go runtime counters the benchmark reports.
type goStats struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	userCPU    float64
	liveBytes  float64
}

func readGo() goStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(samples)
	v := func(i int) float64 { return sampleValue(samples[i]) }
	return goStats{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), userCPU: v(3), liveBytes: v(4)}
}

// readLive is the heap marked live by the latest GC cycle.
func readLive() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return sampleValue(s[0])
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	panic(fmt.Sprintf("wsnbench: runtime metric %s unsupported", s.Name))
}
