// Package routing provides the dimension-order (XY) routing used to
// forward messages between adjacent cells of the oriented grid once
// topology emulation has filled the per-node routing tables, and the
// breadth-first hop counts that check the minimum-hop claims of Section
// 4.2 against a real deployment.
package routing

import (
	"fmt"

	"wsnva/internal/geom"
)

// Graph is the minimal adjacency view BFS needs; deploy.Network
// satisfies it.
type Graph interface {
	N() int
	Neighbors(id int) []int
}

// BFS computes single-source shortest hop counts on g. Unreachable nodes
// get distance -1. parent[v] is the predecessor of v on one shortest path
// (-1 for the source and unreachable nodes).
func BFS(g Graph, src int) (dist, parent []int) {
	n := g.N()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	return dist, parent
}

// XYRoute returns the dimension-order route from src to dst on grid g:
// first move along the column axis (east/west), then along the row axis
// (north/south). The result includes both endpoints and has exactly
// src.Manhattan(dst)+1 entries — XY routing is minimal on a full grid.
func XYRoute(g *geom.Grid, src, dst geom.Coord) []geom.Coord {
	if !g.InBounds(src) || !g.InBounds(dst) {
		panic(fmt.Sprintf("routing: XYRoute endpoints %v->%v out of bounds", src, dst))
	}
	route := []geom.Coord{src}
	cur := src
	for cur.Col != dst.Col {
		if cur.Col < dst.Col {
			cur = cur.Step(geom.East)
		} else {
			cur = cur.Step(geom.West)
		}
		route = append(route, cur)
	}
	for cur.Row != dst.Row {
		if cur.Row < dst.Row {
			cur = cur.Step(geom.South)
		} else {
			cur = cur.Step(geom.North)
		}
		route = append(route, cur)
	}
	return route
}

// WalkXY visits every hop of the dimension-order route from src to dst in
// order, calling visit(from, to) once per hop, without materializing the
// route slice — the allocation-free form of XYRoute for hot paths that
// only need to charge per-hop costs. It returns the hop count.
func WalkXY(g *geom.Grid, src, dst geom.Coord, visit func(from, to geom.Coord)) int {
	if !g.InBounds(src) || !g.InBounds(dst) {
		panic(fmt.Sprintf("routing: WalkXY endpoints %v->%v out of bounds", src, dst))
	}
	hops := 0
	cur := src
	for cur.Col != dst.Col {
		next := cur
		if cur.Col < dst.Col {
			next = cur.Step(geom.East)
		} else {
			next = cur.Step(geom.West)
		}
		visit(cur, next)
		cur = next
		hops++
	}
	for cur.Row != dst.Row {
		next := cur
		if cur.Row < dst.Row {
			next = cur.Step(geom.South)
		} else {
			next = cur.Step(geom.North)
		}
		visit(cur, next)
		cur = next
		hops++
	}
	return hops
}

// NextHopXY returns the direction of the first XY-routing hop from src
// toward dst, and false if src == dst.
func NextHopXY(src, dst geom.Coord) (geom.Dir, bool) {
	switch {
	case src.Col < dst.Col:
		return geom.East, true
	case src.Col > dst.Col:
		return geom.West, true
	case src.Row < dst.Row:
		return geom.South, true
	case src.Row > dst.Row:
		return geom.North, true
	}
	return geom.North, false
}
