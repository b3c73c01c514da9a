// Package geom provides the 2-D geometric primitives used throughout the
// virtual-architecture reproduction: points on the terrain, axis-aligned
// rectangles, grid coordinates of the virtual topology, and the partition of
// a square terrain into equal-sized cells (paper Section 5.1).
//
// The paper deploys n sensor nodes on a square terrain of side L, partitioned
// into non-overlapping cells of side c = L/√N, one cell per node of the
// √N × √N virtual grid. All coordinate conventions in this package follow the
// paper: the grid is "oriented", meaning every node knows which way north is,
// and grid coordinate (0,0) is the north-west corner, with x growing east
// (columns) and y growing south (rows).
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the terrain in the deployment's (absolute or
// relative) coordinate system. Units are arbitrary terrain units; only
// ratios to the transmission range and the cell side matter.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q (the δ function of
// Section 5.1).
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance. It is cheaper than Dist and
// order-equivalent, so election protocols that only compare distances use it.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [MinX,MaxX) × [MinY,MaxY). Half-open
// intervals make cell membership unambiguous for points on shared edges.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether p lies inside r (half-open on the max edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Center returns the geometric center of r (the C(i,j) of Section 5.2).
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

func (r Rect) String() string {
	return fmt.Sprintf("[%.2f,%.2f)x[%.2f,%.2f)", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Coord is a coordinate of the virtual grid topology: Col grows east,
// Row grows south, with (0,0) at the north-west corner, matching the
// paper's oriented grid and the NW-corner leader rule of Section 3.2.
type Coord struct {
	Col, Row int
}

func (c Coord) String() string { return fmt.Sprintf("<%d,%d>", c.Col, c.Row) }

// Manhattan returns the L1 (hop) distance between two grid coordinates,
// which is the minimum hop count between the corresponding virtual nodes
// under shortest-path routing on the grid (Section 4.2's cost assumption).
func (c Coord) Manhattan(d Coord) int {
	return abs(c.Col-d.Col) + abs(c.Row-d.Row)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Dir is one of the four directions of the oriented grid. The topology
// emulation protocol's routing table (Section 5.1) is indexed by Dir.
type Dir int

// The four directions of the oriented grid, in the fixed order used by
// routing tables.
const (
	North Dir = iota
	East
	South
	West
	NumDirs // number of directions; handy for array sizing
)

func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Step returns the coordinate one grid hop from c in direction d. It does
// not check bounds; use Grid.InBounds for that.
func (c Coord) Step(d Dir) Coord {
	switch d {
	case North:
		return Coord{c.Col, c.Row - 1}
	case South:
		return Coord{c.Col, c.Row + 1}
	case East:
		return Coord{c.Col + 1, c.Row}
	case West:
		return Coord{c.Col - 1, c.Row}
	}
	panic(fmt.Sprintf("geom: invalid direction %d", int(d)))
}

// Grid describes a Cols × Rows virtual grid overlaid on a rectangular
// terrain. It provides the bidirectional maps between grid coordinates,
// linear node indices, terrain cells, and terrain points that every other
// package relies on.
type Grid struct {
	Cols, Rows int
	Terrain    Rect
	cellW      float64
	cellH      float64
}

// NewGrid returns a grid of cols × rows cells covering terrain. It panics if
// cols or rows is not positive or the terrain is degenerate, since every
// construction site passes compile-time-ish constants or validated input.
func NewGrid(cols, rows int, terrain Rect) *Grid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("geom: grid dimensions must be positive, got %dx%d", cols, rows))
	}
	if terrain.Width() <= 0 || terrain.Height() <= 0 {
		panic(fmt.Sprintf("geom: degenerate terrain %v", terrain))
	}
	return &Grid{
		Cols:    cols,
		Rows:    rows,
		Terrain: terrain,
		cellW:   terrain.Width() / float64(cols),
		cellH:   terrain.Height() / float64(rows),
	}
}

// NewSquareGrid returns a side × side grid on a [0,L) × [0,L) terrain, the
// configuration used throughout the paper (√N × √N grid on terrain of side L).
func NewSquareGrid(side int, terrainSide float64) *Grid {
	return NewGrid(side, side, Rect{0, 0, terrainSide, terrainSide})
}

// N returns the number of virtual nodes (grid cells).
func (g *Grid) N() int { return g.Cols * g.Rows }

// CellSide returns the cell side length for square cells and panics for
// non-square cells; protocols that reason about "the" cell size (Section 5.1
// requires c·√2 ≤ r) only make sense on square cells.
func (g *Grid) CellSide() float64 {
	if math.Abs(g.cellW-g.cellH) > 1e-9 {
		panic("geom: CellSide on non-square cells")
	}
	return g.cellW
}

// InBounds reports whether c is a valid coordinate of g.
func (g *Grid) InBounds(c Coord) bool {
	return c.Col >= 0 && c.Col < g.Cols && c.Row >= 0 && c.Row < g.Rows
}

// Index returns the linear index of coordinate c in row-major order. The
// paper's Figure 3 labels cells this way (0..15 on the 4×4 grid).
func (g *Grid) Index(c Coord) int {
	if !g.InBounds(c) {
		panic(fmt.Sprintf("geom: coordinate %v out of bounds for %dx%d grid", c, g.Cols, g.Rows))
	}
	return c.Row*g.Cols + c.Col
}

// CoordOf is the inverse of Index.
func (g *Grid) CoordOf(index int) Coord {
	if index < 0 || index >= g.N() {
		panic(fmt.Sprintf("geom: index %d out of bounds for %d-node grid", index, g.N()))
	}
	return Coord{Col: index % g.Cols, Row: index / g.Cols}
}

// Cell returns the terrain rectangle of the cell at coordinate c.
func (g *Grid) Cell(c Coord) Rect {
	if !g.InBounds(c) {
		panic(fmt.Sprintf("geom: coordinate %v out of bounds for %dx%d grid", c, g.Cols, g.Rows))
	}
	return Rect{
		MinX: g.Terrain.MinX + float64(c.Col)*g.cellW,
		MinY: g.Terrain.MinY + float64(c.Row)*g.cellH,
		MaxX: g.Terrain.MinX + float64(c.Col+1)*g.cellW,
		MaxY: g.Terrain.MinY + float64(c.Row+1)*g.cellH,
	}
}

// CellCenter returns the center point of the cell at c, the election target
// of Section 5.2.
func (g *Grid) CellCenter(c Coord) Point { return g.Cell(c).Center() }

// CellOf returns the grid coordinate of the cell containing p — the map
// f_cell : V_r → grid coordinates of Section 5.1. Points on the terrain's
// max edges are clamped into the last row/column so that a node placed
// exactly on the boundary still belongs to a cell.
func (g *Grid) CellOf(p Point) Coord {
	col := int((p.X - g.Terrain.MinX) / g.cellW)
	row := int((p.Y - g.Terrain.MinY) / g.cellH)
	if col < 0 {
		col = 0
	}
	if col >= g.Cols {
		col = g.Cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.Rows {
		row = g.Rows - 1
	}
	return Coord{Col: col, Row: row}
}

// Coords returns all coordinates of g in row-major (index) order.
func (g *Grid) Coords() []Coord {
	out := make([]Coord, 0, g.N())
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			out = append(out, Coord{col, row})
		}
	}
	return out
}

// IsPow2 reports whether v is a positive power of two. Hierarchical groups
// (Section 3.2) and the quad-tree algorithm require power-of-two grid sides.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Log2 returns ⌊log₂ v⌋ for v ≥ 1.
func Log2(v int) int {
	if v < 1 {
		panic(fmt.Sprintf("geom: Log2 of %d", v))
	}
	l := 0
	for v > 1 {
		v >>= 1
		l++
	}
	return l
}
