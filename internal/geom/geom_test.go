package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0, 0}, Point{1, 0}, 1},
		{Point{0, 0}, Point{0, -2}, 2},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDistSymmetricAndDist2Consistent(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Constrain to a sane range to avoid overflow artifacts.
		p := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		q := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		d1, d2 := p.Dist(q), q.Dist(p)
		if math.Abs(d1-d2) > 1e-9 {
			return false
		}
		return math.Abs(d1*d1-p.Dist2(q)) <= 1e-6*(1+d1*d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Point{rng.Float64() * 100, rng.Float64() * 100}
		b := Point{rng.Float64() * 100, rng.Float64() * 100}
		c := Point{rng.Float64() * 100, rng.Float64() * 100}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.Contains(Point{0, 0}) {
		t.Error("min corner should be contained (half-open)")
	}
	if r.Contains(Point{10, 10}) {
		t.Error("max corner should not be contained (half-open)")
	}
	if r.Contains(Point{10, 5}) || r.Contains(Point{5, 10}) {
		t.Error("max edges should not be contained")
	}
	if !r.Contains(Point{9.999, 9.999}) {
		t.Error("interior point should be contained")
	}
}

func TestRectCenterAndDims(t *testing.T) {
	r := Rect{2, 4, 8, 10}
	if c := r.Center(); c != (Point{5, 7}) {
		t.Errorf("Center = %v, want (5,7)", c)
	}
	if r.Width() != 6 || r.Height() != 6 {
		t.Errorf("dims = %v x %v, want 6 x 6", r.Width(), r.Height())
	}
}

func TestCoordManhattan(t *testing.T) {
	if d := (Coord{0, 0}).Manhattan(Coord{3, 4}); d != 7 {
		t.Errorf("Manhattan = %d, want 7", d)
	}
	if d := (Coord{5, 5}).Manhattan(Coord{5, 5}); d != 0 {
		t.Errorf("Manhattan = %d, want 0", d)
	}
	if d := (Coord{3, 1}).Manhattan(Coord{0, 2}); d != 4 {
		t.Errorf("Manhattan = %d, want 4", d)
	}
}

func TestManhattanIsMetric(t *testing.T) {
	f := func(a, b, c int8, d, e, g int8) bool {
		p := Coord{int(a), int(b)}
		q := Coord{int(c), int(d)}
		r := Coord{int(e), int(g)}
		if p.Manhattan(q) != q.Manhattan(p) {
			return false
		}
		if p.Manhattan(p) != 0 {
			return false
		}
		return p.Manhattan(r) <= p.Manhattan(q)+q.Manhattan(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirOppositeAndStep(t *testing.T) {
	opposite := map[Dir]Dir{North: South, South: North, East: West, West: East}
	for d := North; d < NumDirs; d++ {
		c := Coord{5, 5}
		if got := c.Step(d).Step(opposite[d]); got != c {
			t.Errorf("Step %v then back gave %v", d, got)
		}
	}
	if (Coord{2, 2}).Step(North) != (Coord{2, 1}) {
		t.Error("North should decrease Row")
	}
	if (Coord{2, 2}).Step(East) != (Coord{3, 2}) {
		t.Error("East should increase Col")
	}
}

func TestDirStrings(t *testing.T) {
	want := map[Dir]string{North: "N", East: "E", South: "S", West: "W"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%v.String() = %q, want %q", int(d), d.String(), s)
		}
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := NewSquareGrid(8, 80)
	for i := 0; i < g.N(); i++ {
		if got := g.Index(g.CoordOf(i)); got != i {
			t.Fatalf("Index(CoordOf(%d)) = %d", i, got)
		}
	}
	for _, c := range g.Coords() {
		if got := g.CoordOf(g.Index(c)); got != c {
			t.Fatalf("CoordOf(Index(%v)) = %v", c, got)
		}
	}
}

func TestGridIndexMatchesFigure3(t *testing.T) {
	// Paper Figure 3 labels the 4x4 grid row-major 0..15 from the NW corner.
	g := NewSquareGrid(4, 4)
	if g.Index(Coord{0, 0}) != 0 {
		t.Error("NW corner should be index 0")
	}
	if g.Index(Coord{3, 0}) != 3 {
		t.Error("NE corner should be index 3")
	}
	if g.Index(Coord{0, 3}) != 12 {
		t.Error("SW corner should be index 12")
	}
	if g.Index(Coord{3, 3}) != 15 {
		t.Error("SE corner should be index 15")
	}
}

func TestGridCellGeometry(t *testing.T) {
	g := NewSquareGrid(4, 40)
	cell := g.Cell(Coord{1, 2})
	want := Rect{10, 20, 20, 30}
	if cell != want {
		t.Errorf("Cell = %v, want %v", cell, want)
	}
	if got := g.CellCenter(Coord{1, 2}); got != (Point{15, 25}) {
		t.Errorf("CellCenter = %v", got)
	}
	if g.CellSide() != 10 {
		t.Errorf("CellSide = %v, want 10", g.CellSide())
	}
}

func TestCellOfInverseOfCell(t *testing.T) {
	g := NewSquareGrid(16, 160)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		p := Point{rng.Float64() * 160, rng.Float64() * 160}
		c := g.CellOf(p)
		if !g.Cell(c).Contains(p) {
			// Boundary points can be clamped; only interior points must match.
			cell := g.Cell(c)
			if p.X != cell.MaxX && p.Y != cell.MaxY {
				t.Fatalf("CellOf(%v) = %v but cell %v does not contain it", p, c, cell)
			}
		}
	}
}

func TestCellOfClampsBoundary(t *testing.T) {
	g := NewSquareGrid(4, 40)
	if got := g.CellOf(Point{40, 40}); got != (Coord{3, 3}) {
		t.Errorf("CellOf(max corner) = %v, want <3,3>", got)
	}
	if got := g.CellOf(Point{-1, -1}); got != (Coord{0, 0}) {
		t.Errorf("CellOf(below min) = %v, want <0,0>", got)
	}
}

func TestGridNeighbors(t *testing.T) {
	g := NewSquareGrid(3, 3)
	corner := neighbors(g, Coord{0, 0})
	if len(corner) != 2 {
		t.Errorf("corner has %d neighbors, want 2", len(corner))
	}
	edge := neighbors(g, Coord{1, 0})
	if len(edge) != 3 {
		t.Errorf("edge has %d neighbors, want 3", len(edge))
	}
	center := neighbors(g, Coord{1, 1})
	if len(center) != 4 {
		t.Errorf("center has %d neighbors, want 4", len(center))
	}
	for _, n := range center {
		if n.Manhattan(Coord{1, 1}) != 1 {
			t.Errorf("neighbor %v not adjacent", n)
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	g := NewGrid(5, 7, Rect{0, 0, 50, 70})
	for _, c := range g.Coords() {
		for _, n := range neighbors(g, c) {
			found := false
			for _, back := range neighbors(g, n) {
				if back == c {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %v -> %v", c, n)
			}
		}
	}
}

func TestGridCoordsOrder(t *testing.T) {
	g := NewGrid(3, 2, Rect{0, 0, 3, 2})
	coords := g.Coords()
	if len(coords) != 6 {
		t.Fatalf("len = %d, want 6", len(coords))
	}
	for i, c := range coords {
		if g.Index(c) != i {
			t.Errorf("Coords()[%d] = %v has index %d", i, c, g.Index(c))
		}
	}
}

func TestNonSquareGrid(t *testing.T) {
	g := NewGrid(4, 2, Rect{0, 0, 40, 10})
	if g.N() != 8 {
		t.Errorf("N = %d, want 8", g.N())
	}
	cell := g.Cell(Coord{0, 0})
	if cell.Width() != 10 || cell.Height() != 5 {
		t.Errorf("cell dims = %v x %v", cell.Width(), cell.Height())
	}
	defer func() {
		if recover() == nil {
			t.Error("CellSide on non-square cells should panic")
		}
	}()
	g.CellSide()
}

func TestGridPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	assertPanic("zero cols", func() { NewGrid(0, 3, Rect{0, 0, 1, 1}) })
	assertPanic("degenerate terrain", func() { NewGrid(2, 2, Rect{0, 0, 0, 1}) })
	g := NewSquareGrid(2, 2)
	assertPanic("Index OOB", func() { g.Index(Coord{2, 0}) })
	assertPanic("CoordOf OOB", func() { g.CoordOf(4) })
	assertPanic("Cell OOB", func() { g.Cell(Coord{-1, 0}) })
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8, 1024, 65536} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []int{0, -1, -4, 3, 6, 12, 1023} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1024: 10}
	for v, want := range cases {
		if got := Log2(v); got != want {
			t.Errorf("Log2(%d) = %d, want %d", v, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Log2(0) should panic")
		}
	}()
	Log2(0)
}

func TestManhattanEqualsBFSHops(t *testing.T) {
	// On the full grid, Manhattan distance must equal true shortest hop count.
	g := NewSquareGrid(6, 6)
	src := Coord{2, 3}
	dist := map[Coord]int{src: 0}
	queue := []Coord{src}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, n := range neighbors(g, c) {
			if _, seen := dist[n]; !seen {
				dist[n] = dist[c] + 1
				queue = append(queue, n)
			}
		}
	}
	for _, c := range g.Coords() {
		if dist[c] != src.Manhattan(c) {
			t.Errorf("BFS dist to %v = %d, Manhattan = %d", c, dist[c], src.Manhattan(c))
		}
	}
}

// neighbors returns the in-bounds grid coordinates adjacent to c in the
// four directions.
func neighbors(g *Grid, c Coord) []Coord {
	var out []Coord
	for d := North; d < NumDirs; d++ {
		if n := c.Step(d); g.InBounds(n) {
			out = append(out, n)
		}
	}
	return out
}
