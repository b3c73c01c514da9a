// Package taskgraph implements the architecture-independent application
// model of Section 4.1: an annotated task graph whose leaf tasks sample the
// sensing interface and whose interior tasks perform in-network processing
// on data received from their children. The quad-tree of paper Figure 2 is
// the case study's instance; the package also supports general k-ary
// aggregation trees and arbitrary DAGs so mapping algorithms have more than
// one input shape to chew on.
package taskgraph

import (
	"fmt"
	"sort"
)

// Kind distinguishes sensing tasks from processing tasks.
type Kind int

// Task kinds.
const (
	Sensing    Kind = iota // leaf: bound to the sensing interface
	Processing             // interior: merges child data
)

func (k Kind) String() string {
	if k == Sensing {
		return "sensing"
	}
	return "processing"
}

// Task is one node of the application graph.
type Task struct {
	ID    int
	Kind  Kind
	Level int // 0 for leaves of a tree; -1 when levels are meaningless
	// InUnits and OutUnits annotate expected data volumes (cost-model
	// units) consumed and produced per activation; mapping optimizers use
	// them to weigh edges.
	InUnits  int64
	OutUnits int64
}

// Graph is a DAG of tasks with edges directed from producer to consumer
// (child to parent in aggregation trees).
type Graph struct {
	Tasks []Task
	// succ[i] lists consumers of task i's output; pred[i] its producers.
	succ [][]int
	pred [][]int
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddTask appends a task and returns its ID.
func (g *Graph) AddTask(kind Kind, level int, inUnits, outUnits int64) int {
	id := len(g.Tasks)
	g.Tasks = append(g.Tasks, Task{ID: id, Kind: kind, Level: level, InUnits: inUnits, OutUnits: outUnits})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge records that producer's output feeds consumer.
func (g *Graph) AddEdge(producer, consumer int) {
	if producer < 0 || producer >= len(g.Tasks) || consumer < 0 || consumer >= len(g.Tasks) {
		panic(fmt.Sprintf("taskgraph: edge %d->%d out of range", producer, consumer))
	}
	if producer == consumer {
		panic(fmt.Sprintf("taskgraph: self edge at %d", producer))
	}
	g.succ[producer] = append(g.succ[producer], consumer)
	g.pred[consumer] = append(g.pred[consumer], producer)
}

// N returns the number of tasks.
func (g *Graph) N() int { return len(g.Tasks) }

// Pred returns the producers of task id. Callers must not modify it.
func (g *Graph) Pred(id int) []int { return g.pred[id] }

// SensingTasks returns the IDs of all sensing tasks, sorted.
func (g *Graph) SensingTasks() []int {
	var out []int
	for id, t := range g.Tasks {
		if t.Kind == Sensing {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks structural sanity: acyclicity, sensing tasks have no
// predecessors, and processing tasks have at least one predecessor.
func (g *Graph) Validate() error {
	if _, err := g.Topological(); err != nil {
		return err
	}
	for id, t := range g.Tasks {
		switch t.Kind {
		case Sensing:
			if len(g.pred[id]) != 0 {
				return fmt.Errorf("taskgraph: sensing task %d has predecessors", id)
			}
		case Processing:
			if len(g.pred[id]) == 0 {
				return fmt.Errorf("taskgraph: processing task %d has no inputs", id)
			}
		}
	}
	return nil
}

// Topological returns a topological order of task IDs, or an error if the
// graph has a cycle.
func (g *Graph) Topological() ([]int, error) {
	indeg := make([]int, g.N())
	for id := range g.Tasks {
		indeg[id] = len(g.pred[id])
	}
	var ready []int
	for id := range g.Tasks {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	var order []int
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != g.N() {
		return nil, fmt.Errorf("taskgraph: cycle detected (%d of %d tasks ordered)", len(order), g.N())
	}
	return order, nil
}

// Tree describes a regular aggregation tree: every interior task has Arity
// children and the leaves sit at level 0. Levels[l] lists the task IDs at
// level l, each in the deterministic child order the builder used.
type Tree struct {
	*Graph
	Arity  int
	Height int
	Levels [][]int
}

// QuadTree builds the paper's Figure 2 task graph for a 2^height × 2^height
// grid: 4^height sensing leaves, interior processing tasks of arity 4, and
// a single root. Leaf i (in level order) oversees the cells with Morton
// indices [i, i+1); the interior task at level l, position i, oversees
// Morton range [i·4^l, (i+1)·4^l). outUnits annotates every task's output
// with a nominal summary size; the synthesized program replaces it with
// real data-dependent sizes at run time.
func QuadTree(height int, outUnits int64) *Tree {
	return KaryTree(4, height, outUnits)
}

// KaryTree builds a regular k-ary aggregation tree of the given height.
func KaryTree(arity, height int, outUnits int64) *Tree {
	if arity < 2 {
		panic(fmt.Sprintf("taskgraph: arity %d < 2", arity))
	}
	if height < 0 {
		panic(fmt.Sprintf("taskgraph: negative height %d", height))
	}
	g := New()
	tr := &Tree{Graph: g, Arity: arity, Height: height, Levels: make([][]int, height+1)}
	// Level 0: leaves.
	nLeaves := 1
	for i := 0; i < height; i++ {
		nLeaves *= arity
	}
	for i := 0; i < nLeaves; i++ {
		kind := Sensing
		if height == 0 {
			kind = Sensing // a lone root still senses
		}
		tr.Levels[0] = append(tr.Levels[0], g.AddTask(kind, 0, 0, outUnits))
	}
	// Interior levels.
	for l := 1; l <= height; l++ {
		nAtLevel := len(tr.Levels[l-1]) / arity
		for i := 0; i < nAtLevel; i++ {
			id := g.AddTask(Processing, l, int64(arity)*outUnits, outUnits)
			tr.Levels[l] = append(tr.Levels[l], id)
			for c := 0; c < arity; c++ {
				g.AddEdge(tr.Levels[l-1][i*arity+c], id)
			}
		}
	}
	return tr
}

// Root returns the tree's root task ID.
func (t *Tree) Root() int { return t.Levels[t.Height][0] }

// ChildrenOf returns the child task IDs of an interior tree task, in the
// builder's deterministic order.
func (t *Tree) ChildrenOf(id int) []int { return t.Pred(id) }
