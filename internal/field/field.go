// Package field generates the synthetic environmental phenomena the
// topographic-querying case study senses. The paper's application monitors
// a scalar quantity (temperature, contaminant concentration) over the
// terrain with one point of coverage per grid cell; a node is a feature
// node when its reading crosses a query threshold (Section 3.1).
//
// Real deployments provide this data from hardware; this reproduction
// substitutes parameterized scalar fields whose level sets have known,
// controllable region structure, so labeling results can be checked against
// ground truth exactly.
package field

import (
	"fmt"
	"math"
	"math/rand"

	"wsnva/internal/geom"
)

// Field is a scalar phenomenon over the terrain, sampled at points.
type Field interface {
	// Sample returns the field value at p at time t (latency units).
	// Static fields ignore t.
	Sample(p geom.Point, t int64) float64
	// Name identifies the field for experiment tables.
	Name() string
}

// Constant is a uniform field, useful as a degenerate case: thresholding it
// yields either zero regions or one region covering the whole terrain.
type Constant struct {
	Value float64
}

// Sample implements Field.
func (c Constant) Sample(geom.Point, int64) float64 { return c.Value }

// Name implements Field.
func (c Constant) Name() string { return fmt.Sprintf("const-%.2f", c.Value) }

// Blob is one Gaussian bump.
type Blob struct {
	Center geom.Point
	Sigma  float64    // spatial spread
	Peak   float64    // value at the center
	Drift  geom.Point // center velocity in terrain units per latency unit
}

// Blobs is a sum of Gaussian bumps over a baseline — the standard stand-in
// for hot spots / contaminant sources. Drift makes plumes move for the
// repeated-query experiments.
type Blobs struct {
	Base  float64
	Items []Blob
}

// Sample implements Field.
func (b Blobs) Sample(p geom.Point, t int64) float64 {
	v := b.Base
	for _, blob := range b.Items {
		cx := blob.Center.X + blob.Drift.X*float64(t)
		cy := blob.Center.Y + blob.Drift.Y*float64(t)
		dx, dy := p.X-cx, p.Y-cy
		v += blob.Peak * math.Exp(-(dx*dx+dy*dy)/(2*blob.Sigma*blob.Sigma))
	}
	return v
}

// Name implements Field.
func (b Blobs) Name() string { return fmt.Sprintf("blobs-%d", len(b.Items)) }

// RandomBlobs returns a Blobs field with k bumps placed uniformly on
// terrain, each with sigma in [minSigma, maxSigma] and peak 1.0 over a 0.0
// baseline. Deterministic given rng.
func RandomBlobs(k int, terrain geom.Rect, minSigma, maxSigma float64, rng *rand.Rand) Blobs {
	items := make([]Blob, k)
	for i := range items {
		items[i] = Blob{
			Center: geom.Point{
				X: terrain.MinX + rng.Float64()*terrain.Width(),
				Y: terrain.MinY + rng.Float64()*terrain.Height(),
			},
			Sigma: minSigma + rng.Float64()*(maxSigma-minSigma),
			Peak:  1.0,
		}
	}
	return Blobs{Items: items}
}

// Gradient is a linear ramp across the terrain; thresholding it produces a
// single half-plane region, the paper's "gradients of sensor readings"
// visualization case.
type Gradient struct {
	Origin geom.Point
	DX, DY float64 // value change per terrain unit
	Base   float64
}

// Sample implements Field.
func (g Gradient) Sample(p geom.Point, _ int64) float64 {
	return g.Base + g.DX*(p.X-g.Origin.X) + g.DY*(p.Y-g.Origin.Y)
}

// Name implements Field.
func (g Gradient) Name() string { return "gradient" }

// Stripes alternates high/low bands of the given width along the x axis —
// a worst case for boundary compression because region perimeter grows
// linearly with area.
type Stripes struct {
	Width float64 // band width in terrain units
	High  float64
	Low   float64
}

// Sample implements Field.
func (s Stripes) Sample(p geom.Point, _ int64) float64 {
	if int(math.Floor(p.X/s.Width))%2 == 0 {
		return s.High
	}
	return s.Low
}

// Name implements Field.
func (s Stripes) Name() string { return "stripes" }

// Named looks up a mission phenomenon by name — "blobs" (four random
// bumps drawn from the stream seed+2), "gradient", "stripes" or "solid" —
// and returns the function that builds it over a terrain. It is the one
// table the simulator CLI and the mission server share, so the same
// mission means the same phenomenon at both. An unknown name is an error.
func Named(name string) (func(terrain geom.Rect, seed int64) Field, error) {
	switch name {
	case "blobs":
		return func(terrain geom.Rect, seed int64) Field {
			return RandomBlobs(4, terrain, terrain.Width()/10, terrain.Width()/6,
				rand.New(rand.NewSource(seed+2)))
		}, nil
	case "gradient":
		return func(terrain geom.Rect, _ int64) Field {
			return Gradient{DX: 1.0 / terrain.Width() * 2}
		}, nil
	case "stripes":
		return func(terrain geom.Rect, _ int64) Field {
			return Stripes{Width: terrain.Width() / 4, High: 1}
		}, nil
	case "solid":
		return func(geom.Rect, int64) Field { return Constant{Value: 1} }, nil
	}
	return nil, fmt.Errorf("field: unknown phenomenon %q (want blobs, gradient, stripes, or solid)", name)
}

// Noise adds i.i.d. uniform noise in [-Amp, +Amp] to an inner field,
// deterministically derived from the sample position so repeated samples at
// a point agree (a fixed sensor re-reads the same miscalibration, which is
// the realistic failure mode for threshold queries).
type Noise struct {
	Inner Field
	Amp   float64
	Seed  int64
}

// Sample implements Field.
func (n Noise) Sample(p geom.Point, t int64) float64 {
	h := hash2(p.X, p.Y, n.Seed)
	u := float64(h%1000000)/1000000.0*2 - 1
	return n.Inner.Sample(p, t) + n.Amp*u
}

// Name implements Field.
func (n Noise) Name() string { return n.Inner.Name() + "+noise" }

func hash2(x, y float64, seed int64) uint64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + math.Float64bits(x)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h += math.Float64bits(y)
	h ^= h >> 32
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// BinaryMap is the per-cell feature bitmap the labeling algorithm consumes:
// true means the cell's point of coverage is a feature node for the query.
type BinaryMap struct {
	Grid *geom.Grid
	Bits []bool
}

// Threshold samples f at every cell center of g at time t and marks cells
// whose reading is ≥ thresh — the leaf-node feature test of Section 4.1.
func Threshold(f Field, g *geom.Grid, thresh float64, t int64) *BinaryMap {
	bits := make([]bool, g.N())
	for i := range bits {
		bits[i] = f.Sample(g.CellCenter(g.CoordOf(i)), t) >= thresh
	}
	return &BinaryMap{Grid: g, Bits: bits}
}

// FromBits wraps an explicit bitmap, for tests with hand-drawn maps.
func FromBits(g *geom.Grid, bits []bool) *BinaryMap {
	if len(bits) != g.N() {
		panic(fmt.Sprintf("field: %d bits for %d cells", len(bits), g.N()))
	}
	return &BinaryMap{Grid: g, Bits: bits}
}

// Parse builds a BinaryMap from rows of '.' (background) and '#' (feature),
// e.g. Parse(g, "##..", "....", "..##", "..##"). Rows must match the grid.
func Parse(g *geom.Grid, rows ...string) *BinaryMap {
	if len(rows) != g.Rows {
		panic(fmt.Sprintf("field: %d rows for %d-row grid", len(rows), g.Rows))
	}
	bits := make([]bool, g.N())
	for r, row := range rows {
		if len(row) != g.Cols {
			panic(fmt.Sprintf("field: row %d has %d cols, want %d", r, len(row), g.Cols))
		}
		for c := 0; c < g.Cols; c++ {
			switch row[c] {
			case '#':
				bits[r*g.Cols+c] = true
			case '.':
			default:
				panic(fmt.Sprintf("field: bad map char %q", row[c]))
			}
		}
	}
	return &BinaryMap{Grid: g, Bits: bits}
}

// At reports whether the cell at coordinate c is a feature cell.
func (m *BinaryMap) At(c geom.Coord) bool { return m.Bits[m.Grid.Index(c)] }

// Count returns the number of feature cells.
func (m *BinaryMap) Count() int {
	n := 0
	for _, b := range m.Bits {
		if b {
			n++
		}
	}
	return n
}

// String renders the map with '#' and '.', one row per line — the ASCII
// topographic map used by the CLI tools.
func (m *BinaryMap) String() string {
	buf := make([]byte, 0, (m.Grid.Cols+1)*m.Grid.Rows)
	for r := 0; r < m.Grid.Rows; r++ {
		for c := 0; c < m.Grid.Cols; c++ {
			if m.Bits[r*m.Grid.Cols+c] {
				buf = append(buf, '#')
			} else {
				buf = append(buf, '.')
			}
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
