// Command wsnbench is the repository's end-to-end benchmark. It runs one
// named workload from a workload seed, checks every output against an
// oracle already in the repository, and prints each metric by name with
// its unit; the last line of standard output is one JSON object.
//
//	wsnbench --workload mission|churn|shard|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// records spans around its own calls into each layer and prints the
// per-layer metrics instead, plus the spans file's path. README.md in
// this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	start    time.Time
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result.
type report struct {
	attempted, failed int
	// broken is set when a whole-run check (rather than one op's output)
	// failed, e.g. the serve workload's planned hit/miss counts.
	broken  bool
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) correct() bool { return r.failed == 0 && !r.broken }

// complete checks that the report carries exactly the metrics want
// names, with their units.
func (r *report) complete(want []metricDef) error {
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for _, m := range want {
		if got, ok := r.metrics[m.name]; !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s missing or not in %s", m.name, m.unit)
		}
	}
	return nil
}

// print writes one human-readable line per metric, then the JSON line.
func (r *report) print() error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// spansPath is where a traced run leaves its spans, inside the build
// directory the benchmark's wrapper script owns.
func spansPath(cfg config) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "workload: mission, churn, shard or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed: regenerates every op list and the serve schedule")
	seconds := flag.Int("seconds", 20, "nominal run length; fixes the op count, never cuts a run short")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, start: start}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "wsnbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	var rep *report
	var err error
	switch cfg.workload {
	case "mission":
		rep, err = runBatch(newMission(), cfg)
	case "churn":
		rep, err = runBatch(newChurn(), cfg)
	case "shard":
		rep, err = runBatch(newShardWL(), cfg)
	case "serve":
		rep, err = runServe(cfg)
	default:
		fmt.Fprintf(os.Stderr, "wsnbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsnbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := rep.complete(want); err != nil {
		fmt.Fprintf(os.Stderr, "wsnbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := rep.print(); err != nil {
		fmt.Fprintf(os.Stderr, "wsnbench: %v\n", err)
		os.Exit(1)
	}
}
