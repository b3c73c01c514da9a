package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"wsnva/internal/churn"
	"wsnva/internal/cost"
	"wsnva/internal/fault"
	"wsnva/internal/field"
	"wsnva/internal/geom"
	"wsnva/internal/regions"
	"wsnva/internal/sim"
	"wsnva/internal/synth"
	"wsnva/internal/varch"
)

// TestLabelingMatchesSynthDES runs the synthesized labeling program on
// the shard fabric and on the virtual architecture's DES: under zero
// hazards both must exfiltrate value-equal root summaries, and the
// shard result must agree with the ground-truth sequential labeler.
func TestLabelingMatchesSynthDES(t *testing.T) {
	cases := []struct {
		side int
		rows []string
	}{
		{4, []string{"##..", "#...", "..##", "..##"}},
		{4, []string{"....", "....", "....", "...."}},
		{4, []string{"####", "####", "####", "####"}},
		{8, nil}, // random
	}
	rng := rand.New(rand.NewSource(99))
	for ci, tc := range cases {
		g := geom.NewSquareGrid(tc.side, float64(tc.side))
		var m *field.BinaryMap
		if tc.rows != nil {
			m = field.Parse(g, tc.rows...)
		} else {
			bits := make([]bool, g.N())
			for i := range bits {
				bits[i] = rng.Float64() < 0.5
			}
			m = field.FromBits(g, bits)
		}

		h := varch.MustHierarchy(g)
		vm := varch.NewMachine(h, sim.New(), cost.NewLedger(cost.NewUniform(), g.N()))
		want, err := synth.RunOnMachine(vm, m)
		if err != nil {
			t.Fatalf("case %d: synth: %v", ci, err)
		}

		for _, shards := range []int{1, 4} {
			got, err := RunLabeling(m, LabelConfig{Config: Config{Shards: shards, Workers: 2}})
			if err != nil {
				t.Fatalf("case %d shards=%d: %v", ci, shards, err)
			}
			if got.Final == nil {
				t.Fatalf("case %d shards=%d: labeling stalled with no hazards", ci, shards)
			}
			if got.Final.CoveredCells() != g.N() {
				t.Fatalf("case %d shards=%d: final summary covers %d of %d cells",
					ci, shards, got.Final.CoveredCells(), g.N())
			}
			if !got.Final.Equal(want.Final) {
				t.Fatalf("case %d shards=%d: shard summary != synth summary\nshard: %v\nsynth: %v",
					ci, shards, got.Final, want.Final)
			}
			if truth := regions.Label(m); got.Final.Count() != truth.Count {
				t.Fatalf("case %d shards=%d: %d regions, ground truth %d",
					ci, shards, got.Final.Count(), truth.Count)
			}
		}
	}
}

// TestLabelingShardInvarianceUnderHazards is the issue's acceptance
// check in miniature: an 8x8 labeling run with nonzero loss and a
// pinned mid-run death must produce deep-equal results and
// byte-identical canonical traces for shard counts 1, 2, and 4.
func TestLabelingShardInvarianceUnderHazards(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	rng := rand.New(rand.NewSource(5))
	bits := make([]bool, g.N())
	for i := range bits {
		bits[i] = rng.Float64() < 0.5
	}
	m := field.FromBits(g, bits)

	base := LabelConfig{Config: Config{
		Loss:    0.12,
		Seed:    424242,
		Crashes: fault.At(fault.Crash{Node: 27, At: 3}, fault.Crash{Node: 50, At: 9}),
		Trace:   true,
	}}
	want, err := RunLabeling(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Deaths < 1 {
		t.Fatalf("expected at least one mid-run death, got %d", want.Deaths)
	}
	if want.Dropped == 0 {
		t.Fatal("expected lossy drops in the trace")
	}
	for _, shards := range []int{1, 2, 4} {
		cfg := base
		cfg.Shards, cfg.Workers = shards, 2
		got, err := RunLabeling(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Trace, want.Trace) {
			t.Fatalf("shards=%d: canonical trace diverges from oracle", shards)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: labeling result diverges from oracle", shards)
		}
		if got.Checksum() != want.Checksum() {
			t.Fatalf("shards=%d: checksum diverges", shards)
		}
	}
}

// TestLabelingDepletionKillsRun arms a battery budget small enough that
// relays die mid-reduction: the run must stall deterministically (nil
// Final) with the same death set at every shard count.
func TestLabelingDepletionKillsRun(t *testing.T) {
	g := geom.NewSquareGrid(8, 8)
	m := field.FromBits(g, make([]bool, g.N()))
	base := LabelConfig{Config: Config{Capacity: 12, Deplete: true, Trace: true}}
	want, err := RunLabeling(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Deaths == 0 {
		t.Fatal("expected depletions under a 12-unit budget")
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards, cfg.Workers = shards, 2
		got, err := RunLabeling(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: depleting labeling run diverges from oracle", shards)
		}
	}
}

// TestLabelingValidation rejects grids the quad-tree cannot run on and
// hazard knobs out of range.
func TestLabelingValidation(t *testing.T) {
	bad := field.FromBits(geom.NewGrid(3, 3, geom.Rect{MaxX: 3, MaxY: 3}), make([]bool, 9))
	if _, err := RunLabeling(bad, LabelConfig{}); err == nil {
		t.Error("3x3 grid accepted (not a power of two)")
	}
	g := geom.NewSquareGrid(4, 4)
	m := field.FromBits(g, make([]bool, g.N()))
	if _, err := RunLabeling(m, LabelConfig{Config: Config{Loss: 1.5}}); err == nil {
		t.Error("loss 1.5 accepted")
	}
	if _, err := RunLabeling(m, LabelConfig{Config: Config{Deplete: true}}); err == nil {
		t.Error("Deplete without Capacity accepted")
	}
}

// labelPinConfig arms one hazard class on a side×side labeling run.
func labelPinConfig(hazard string, side int) Config {
	cfg := Config{Workers: 2, Trace: true}
	switch n := side * side; hazard {
	case "loss":
		cfg.Loss, cfg.Seed = 0.01, int64(side)
	case "crash":
		cfg.Crashes = fault.At(fault.Crash{Node: n/2 + side/2, At: sim.Time(side / 2)},
			fault.Crash{Node: n/4 + 1, At: sim.Time(side)})
	case "depletion":
		cfg.Capacity, cfg.Deplete = 60, true
	case "churn":
		cfg.Churn = churn.Poisson(n, 0.5, sim.Time(2*side), int64(side))
	}
	return cfg
}

// TestLabelingPinnedChecksums pins the labeling workload's exact
// behaviour at scale — every hop, drop, death and charge, through the
// canonical trace — under each hazard class, at shard counts 1 and 4.
// The checksums were recorded from the hand-written shard port of
// Figure 4 that the hosted synthesized program replaced.
func TestLabelingPinnedChecksums(t *testing.T) {
	pins := []struct {
		side   int
		hazard string
		sum    uint64
	}{
		{16, "none", 0x90b0f12a99396019}, {16, "loss", 0x3e25a67134168dda},
		{16, "crash", 0xec2a5b9c76775e0f}, {16, "depletion", 0xad4639da454c65e7},
		{16, "churn", 0xe9794735372f33f1}, {32, "none", 0x1d2839f3091b837f},
		{32, "loss", 0x3f2f4617cbd1a470}, {32, "crash", 0x4b05435d6ac5b81e},
		{32, "depletion", 0x10cca6f67fa903ed}, {32, "churn", 0x0dce056f19c282a6},
		{64, "none", 0xf6136a8c19b155a5}, {64, "loss", 0x94ca8e0e2fbc271b},
		{64, "crash", 0x86b7514bdc73d26c}, {64, "depletion", 0x4763742de9312743},
		{64, "churn", 0xda04bdea6257cbda},
	}
	for _, pin := range pins {
		if testing.Short() && pin.side > 16 {
			continue
		}
		m := randomMap(pin.side, rand.New(rand.NewSource(int64(pin.side))))
		for _, shards := range []int{1, 4} {
			cfg := labelPinConfig(pin.hazard, pin.side)
			cfg.Shards = shards
			res, err := RunLabeling(m, LabelConfig{Config: cfg})
			if err != nil {
				t.Fatalf("side %d %s shards=%d: %v", pin.side, pin.hazard, shards, err)
			}
			if got := res.Checksum(); got != pin.sum {
				t.Errorf("side %d %s shards=%d: checksum %#x, pinned %#x", pin.side, pin.hazard, shards, got, pin.sum)
			}
		}
	}
}

// TestLabelingAllocs guards the hosted program's construction cost: one
// rule set per run, and per node only the instance and its registers.
// Two GCs empty the instance pool before each run. A side-16 run makes
// about 5,950 mallocs (6,350 under -race); the bound leaves about 4 per
// node of margin, while a per-node Spec with closures costs 13 per node.
func TestLabelingAllocs(t *testing.T) {
	const labelAllocBound = 7000
	m := randomMap(16, rand.New(rand.NewSource(16)))
	allocs := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		if _, err := RunLabeling(m, LabelConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > labelAllocBound {
		t.Errorf("side-16 labeling run made %.0f mallocs, bound %d", allocs, labelAllocBound)
	}
}
