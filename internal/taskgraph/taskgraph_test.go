package taskgraph

import "testing"

func TestAddTaskAndEdge(t *testing.T) {
	g := New()
	a := g.AddTask(Sensing, 0, 0, 1)
	b := g.AddTask(Processing, 1, 1, 1)
	g.AddEdge(a, b)
	if g.N() != 2 {
		t.Errorf("N = %d", g.N())
	}
	if len(g.succ[a]) != 1 || g.succ[a][0] != b {
		t.Error("succ wrong")
	}
	if len(g.Pred(b)) != 1 || g.Pred(b)[0] != a {
		t.Error("pred wrong")
	}
}

func TestEdgePanics(t *testing.T) {
	g := New()
	a := g.AddTask(Sensing, 0, 0, 1)
	for name, f := range map[string]func(){
		"out of range": func() { g.AddEdge(a, 5) },
		"self edge":    func() { g.AddEdge(a, a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLeavesRootsSensing(t *testing.T) {
	tr := QuadTree(2, 1)
	var leaves, roots []int
	for id := range tr.Tasks {
		if len(tr.Pred(id)) == 0 {
			leaves = append(leaves, id)
		}
		if len(tr.succ[id]) == 0 {
			roots = append(roots, id)
		}
	}
	if len(leaves) != 16 {
		t.Errorf("leaves = %d, want 16", len(leaves))
	}
	if len(roots) != 1 || roots[0] != tr.Root() {
		t.Errorf("roots = %v", roots)
	}
	sensing := tr.SensingTasks()
	if len(sensing) != 16 {
		t.Errorf("sensing tasks = %d, want 16", len(sensing))
	}
	for i := range leaves {
		if leaves[i] != sensing[i] {
			t.Error("in a tree, leaves and sensing tasks coincide")
		}
	}
}

func TestQuadTreeMatchesFigure2(t *testing.T) {
	// Figure 2: 16 leaves, 4 level-1 tasks, 1 root for a 4x4 grid.
	tr := QuadTree(2, 1)
	if tr.N() != 21 {
		t.Errorf("task count = %d, want 21", tr.N())
	}
	if len(tr.Levels[0]) != 16 || len(tr.Levels[1]) != 4 || len(tr.Levels[2]) != 1 {
		t.Errorf("level sizes = %d/%d/%d", len(tr.Levels[0]), len(tr.Levels[1]), len(tr.Levels[2]))
	}
	// Every interior task has exactly 4 children; leaf i feeds interior i/4.
	for l := 1; l <= 2; l++ {
		for i, id := range tr.Levels[l] {
			ch := tr.ChildrenOf(id)
			if len(ch) != 4 {
				t.Fatalf("task %d has %d children", id, len(ch))
			}
			for c, cid := range ch {
				if cid != tr.Levels[l-1][i*4+c] {
					t.Errorf("child order wrong at level %d task %d", l, i)
				}
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Figure 2 graph should validate: %v", err)
	}
}

func TestParentOf(t *testing.T) {
	tr := QuadTree(1, 1)
	if s := tr.succ[tr.Root()]; len(s) != 0 {
		t.Errorf("root has consumers %v", s)
	}
	for _, leaf := range tr.Levels[0] {
		if s := tr.succ[leaf]; len(s) != 1 || s[0] != tr.Root() {
			t.Errorf("leaf %d consumers = %v, want only the root", leaf, s)
		}
	}
}

func TestKaryTreeShapes(t *testing.T) {
	for _, tc := range []struct {
		arity, height, wantLeaves, wantTotal int
	}{
		{2, 3, 8, 15},
		{3, 2, 9, 13},
		{4, 0, 1, 1},
		{4, 3, 64, 85},
	} {
		tr := KaryTree(tc.arity, tc.height, 1)
		if len(tr.Levels[0]) != tc.wantLeaves {
			t.Errorf("arity %d height %d: leaves = %d, want %d", tc.arity, tc.height, len(tr.Levels[0]), tc.wantLeaves)
		}
		if tr.N() != tc.wantTotal {
			t.Errorf("arity %d height %d: total = %d, want %d", tc.arity, tc.height, tr.N(), tc.wantTotal)
		}
	}
}

func TestKaryTreePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"arity 1":         func() { KaryTree(1, 2, 1) },
		"negative height": func() { KaryTree(2, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTopologicalOrder(t *testing.T) {
	tr := QuadTree(2, 1)
	order, err := tr.Topological()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for id := range tr.Tasks {
		for _, s := range tr.succ[id] {
			if pos[id] >= pos[s] {
				t.Errorf("edge %d->%d violates topological order", id, s)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a := g.AddTask(Processing, -1, 1, 1)
	b := g.AddTask(Processing, -1, 1, 1)
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := g.Topological(); err == nil {
		t.Error("cycle should be detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate should reject cycles")
	}
}

func TestValidateKindRules(t *testing.T) {
	g := New()
	a := g.AddTask(Sensing, 0, 0, 1)
	b := g.AddTask(Sensing, 0, 0, 1)
	g.AddEdge(a, b)
	if err := g.Validate(); err == nil {
		t.Error("sensing task with predecessors should fail validation")
	}
	g2 := New()
	g2.AddTask(Processing, 1, 1, 1)
	if err := g2.Validate(); err == nil {
		t.Error("processing task without inputs should fail validation")
	}
}

func TestDepthMatchesLevels(t *testing.T) {
	// The level the builder assigns is the longest producer chain
	// ending at the task.
	tr := QuadTree(3, 1)
	order, err := tr.Topological()
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int, tr.N())
	for _, id := range order {
		for _, p := range tr.Pred(id) {
			if depth[p]+1 > depth[id] {
				depth[id] = depth[p] + 1
			}
		}
	}
	for l, ids := range tr.Levels {
		for _, id := range ids {
			if depth[id] != l {
				t.Errorf("task %d: depth %d, level %d", id, depth[id], l)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Sensing.String() != "sensing" || Processing.String() != "processing" {
		t.Error("kind strings")
	}
}
