package vtree

import (
	"math/rand"
	"testing"

	"wsnva/internal/cost"
	"wsnva/internal/deploy"
	"wsnva/internal/geom"
	"wsnva/internal/radio"
	"wsnva/internal/routing"
	"wsnva/internal/sim"
)

func clustered(t *testing.T, n int, seed int64) (*deploy.Network, *radio.Medium, *cost.Ledger) {
	t.Helper()
	terrain := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	for attempt := int64(0); attempt < 50; attempt++ {
		rng := rand.New(rand.NewSource(seed + attempt))
		nw := deploy.New(n, terrain, 18, deploy.Clustered{Clusters: 4, Spread: 0.08}, rng)
		if nw.Connected() {
			l := cost.NewLedger(cost.NewUniform(), nw.N())
			med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(seed+100)), radio.Config{})
			return nw, med, l
		}
	}
	t.Fatal("no connected clustered deployment found")
	return nil, nil, nil
}

func TestBuildSpansConnectedNetwork(t *testing.T) {
	nw, med, _ := clustered(t, 120, 1)
	p := New(med)
	m := p.Build(0)
	if m.Reached != nw.N() {
		t.Fatalf("reached %d of %d nodes", m.Reached, nw.N())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Adoptions != int64(nw.N()-1) {
		t.Errorf("adoptions = %d, want n-1", m.Adoptions)
	}
	if m.Broadcasts < int64(nw.N()) {
		t.Errorf("every node broadcasts at least once, got %d", m.Broadcasts)
	}
}

func TestBuildYieldsShortestPathTree(t *testing.T) {
	nw, med, _ := clustered(t, 100, 3)
	p := New(med)
	p.Build(0)
	dist, _ := routing.BFS(nw, 0)
	for id := 0; id < nw.N(); id++ {
		if p.Depth(id) != dist[id] {
			t.Errorf("node %d: tree depth %d, BFS distance %d", id, p.Depth(id), dist[id])
		}
	}
}

func TestAggregateSum(t *testing.T) {
	nw, med, _ := clustered(t, 100, 5)
	p := New(med)
	p.Build(0)
	got, messages := p.Aggregate(
		func(id int) int64 { return int64(id) },
		func(a, b int64) int64 { return a + b },
	)
	want := int64(nw.N()*(nw.N()-1)) / 2
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if messages != int64(nw.N()-1) {
		t.Errorf("messages = %d, want one per non-root node", messages)
	}
}

func TestAggregateMax(t *testing.T) {
	_, med, _ := clustered(t, 80, 7)
	p := New(med)
	p.Build(0)
	got, _ := p.Aggregate(
		func(id int) int64 { return int64((id*37)%101) - 50 },
		func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		},
	)
	want := int64(-1 << 62)
	for id := 0; id < 80; id++ {
		if v := int64((id*37)%101) - 50; v > want {
			want = v
		}
	}
	if got != want {
		t.Errorf("max = %d, want %d", got, want)
	}
}

func TestAggregateCheaperThanUnicastToRoot(t *testing.T) {
	// Tree convergecast sends n-1 unit messages over tree edges; shipping
	// every value individually to the root costs sum-of-depths messages.
	nw, med, l := clustered(t, 120, 9)
	p := New(med)
	p.Build(0)
	before := l.Metrics().Total
	p.Aggregate(func(id int) int64 { return 1 }, func(a, b int64) int64 { return a + b })
	treeCost := int64(l.Metrics().Total - before)

	// Direct: each node's value travels Depth(id) hops individually.
	var directCost int64
	for id := 0; id < nw.N(); id++ {
		directCost += int64(p.Depth(id)) * 2 * aggMsgSize // tx+rx per hop
	}
	if treeCost >= directCost {
		t.Errorf("convergecast cost %d should beat per-node unicast %d", treeCost, directCost)
	}
}

func TestDisseminate(t *testing.T) {
	nw, med, _ := clustered(t, 90, 11)
	p := New(med)
	p.Build(0)
	forwards := p.Disseminate(3)
	// Every interior node forwards exactly once; leaves don't.
	interior := int64(0)
	for id := 0; id < nw.N(); id++ {
		if len(p.children[id]) > 0 {
			interior++
		}
	}
	if forwards != interior {
		t.Errorf("forwards = %d, want %d interior nodes", forwards, interior)
	}
}

func TestTreeWorksWhereGridFails(t *testing.T) {
	// The motivating scenario: a clustered deployment that cannot satisfy
	// the grid's occupancy requirement still supports the tree topology.
	nw, med, _ := clustered(t, 100, 13)
	g := geom.NewSquareGrid(8, 100)
	if nw.OccupancyOK(g) {
		t.Skip("deployment accidentally covers all cells; pick another seed")
	}
	p := New(med)
	m := p.Build(0)
	if m.Reached != nw.N() {
		t.Errorf("tree reached %d of %d despite grid failure", m.Reached, nw.N())
	}
	count, _ := p.Aggregate(func(int) int64 { return 1 }, func(a, b int64) int64 { return a + b })
	if count != int64(nw.N()) {
		t.Errorf("census = %d, want %d", count, nw.N())
	}
}

func TestDisconnectedDeploymentPartialTree(t *testing.T) {
	// Two far-apart nodes: the tree covers only the root's component and
	// Validate still passes (unreached nodes are legal).
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 90, Y: 90}}
	nw := deploy.FromPoints(pts, geom.Rect{MaxX: 100, MaxY: 100}, 5)
	l := cost.NewLedger(cost.NewUniform(), nw.N())
	med := radio.NewMedium(nw, sim.New(), l, rand.New(rand.NewSource(1)), radio.Config{})
	p := New(med)
	m := p.Build(0)
	if m.Reached != 2 {
		t.Errorf("reached = %d, want 2", m.Reached)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Depth(2) != -1 || p.parent[2] != NoNode {
		t.Error("isolated node should stay unreached")
	}
}

func TestUsageBeforeBuildPanics(t *testing.T) {
	_, med, _ := clustered(t, 40, 15)
	p := New(med)
	for name, f := range map[string]func(){
		"aggregate":   func() { p.Aggregate(func(int) int64 { return 0 }, func(a, b int64) int64 { return a }) },
		"disseminate": func() { p.Disseminate(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s before Build should panic", name)
				}
			}()
			f()
		}()
	}
}
