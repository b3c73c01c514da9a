package field

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"wsnva/internal/geom"
)

func TestConstantField(t *testing.T) {
	f := Constant{Value: 3.5}
	if f.Sample(geom.Point{X: 1, Y: 2}, 0) != 3.5 {
		t.Error("constant field should return its value everywhere")
	}
	if f.Name() != "const-3.50" {
		t.Errorf("name = %q", f.Name())
	}
}

func TestBlobPeakAndDecay(t *testing.T) {
	b := Blobs{Base: 0.1, Items: []Blob{{Center: geom.Point{X: 50, Y: 50}, Sigma: 5, Peak: 2}}}
	center := b.Sample(geom.Point{X: 50, Y: 50}, 0)
	if math.Abs(center-2.1) > 1e-12 {
		t.Errorf("value at center = %v, want 2.1", center)
	}
	near := b.Sample(geom.Point{X: 55, Y: 50}, 0)
	far := b.Sample(geom.Point{X: 80, Y: 50}, 0)
	if !(center > near && near > far) {
		t.Errorf("blob should decay monotonically: %v %v %v", center, near, far)
	}
	if math.Abs(far-0.1) > 0.01 {
		t.Errorf("far value %v should approach base 0.1", far)
	}
}

func TestBlobDrift(t *testing.T) {
	b := Blobs{Items: []Blob{{Center: geom.Point{X: 10, Y: 10}, Sigma: 3, Peak: 1, Drift: geom.Point{X: 1, Y: 0}}}}
	at0 := b.Sample(geom.Point{X: 10, Y: 10}, 0)
	at5 := b.Sample(geom.Point{X: 15, Y: 10}, 5)
	if math.Abs(at0-at5) > 1e-12 {
		t.Error("drifting blob should carry its peak along the drift vector")
	}
	if b.Sample(geom.Point{X: 10, Y: 10}, 5) >= at0 {
		t.Error("value at the old center should drop after drift")
	}
}

func TestRandomBlobsDeterministic(t *testing.T) {
	tr := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	a := RandomBlobs(5, tr, 2, 8, rand.New(rand.NewSource(3)))
	b := RandomBlobs(5, tr, 2, 8, rand.New(rand.NewSource(3)))
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatal("same seed must give same blobs")
		}
		if a.Items[i].Sigma < 2 || a.Items[i].Sigma > 8 {
			t.Errorf("sigma %v out of range", a.Items[i].Sigma)
		}
		if !tr.Contains(a.Items[i].Center) {
			t.Errorf("center %v outside terrain", a.Items[i].Center)
		}
	}
	if a.Name() != "blobs-5" {
		t.Errorf("name = %q", a.Name())
	}
}

func TestGradient(t *testing.T) {
	g := Gradient{Origin: geom.Point{X: 0, Y: 0}, DX: 1, DY: 0, Base: 10}
	if got := g.Sample(geom.Point{X: 5, Y: 99}, 0); got != 15 {
		t.Errorf("gradient sample = %v, want 15", got)
	}
	if g.Sample(geom.Point{X: 6, Y: 0}, 0) <= g.Sample(geom.Point{X: 5, Y: 0}, 0) {
		t.Error("gradient should increase along +x")
	}
}

func TestStripes(t *testing.T) {
	s := Stripes{Width: 10, High: 1, Low: 0}
	if s.Sample(geom.Point{X: 5, Y: 0}, 0) != 1 {
		t.Error("first band should be high")
	}
	if s.Sample(geom.Point{X: 15, Y: 0}, 0) != 0 {
		t.Error("second band should be low")
	}
	if s.Sample(geom.Point{X: 25, Y: 0}, 0) != 1 {
		t.Error("third band should be high")
	}
}

func TestNoiseDeterministicPerPoint(t *testing.T) {
	n := Noise{Inner: Constant{Value: 1}, Amp: 0.5, Seed: 7}
	p := geom.Point{X: 3.25, Y: 8.5}
	if n.Sample(p, 0) != n.Sample(p, 10) {
		t.Error("noise must be a deterministic function of position")
	}
	v := n.Sample(p, 0)
	if v < 0.5 || v > 1.5 {
		t.Errorf("noisy value %v outside [0.5, 1.5]", v)
	}
	q := geom.Point{X: 3.26, Y: 8.5}
	if n.Sample(p, 0) == n.Sample(q, 0) {
		t.Error("distinct points should (almost surely) get distinct noise")
	}
	if !strings.HasSuffix(n.Name(), "+noise") {
		t.Errorf("name = %q", n.Name())
	}
}

func TestThreshold(t *testing.T) {
	g := geom.NewSquareGrid(4, 40)
	grad := Gradient{Origin: geom.Point{X: 0, Y: 0}, DX: 1, DY: 0}
	m := Threshold(grad, g, 20, 0)
	// Cell centers are at x = 5, 15, 25, 35; threshold 20 marks cols 2,3.
	for _, c := range g.Coords() {
		want := c.Col >= 2
		if m.At(c) != want {
			t.Errorf("cell %v = %v, want %v", c, m.At(c), want)
		}
	}
	if m.Count() != 8 {
		t.Errorf("Count = %d, want 8", m.Count())
	}
}

func TestParseAndString(t *testing.T) {
	g := geom.NewSquareGrid(3, 3)
	m := Parse(g,
		"#.#",
		"...",
		"##.",
	)
	if !m.At(geom.Coord{Col: 0, Row: 0}) || m.At(geom.Coord{Col: 1, Row: 0}) {
		t.Error("parse row 0 wrong")
	}
	if !m.At(geom.Coord{Col: 1, Row: 2}) {
		t.Error("parse row 2 wrong")
	}
	if m.Count() != 4 {
		t.Errorf("Count = %d, want 4", m.Count())
	}
	want := "#.#\n...\n##.\n"
	if m.String() != want {
		t.Errorf("String = %q, want %q", m.String(), want)
	}
}

func TestParsePanics(t *testing.T) {
	g := geom.NewSquareGrid(2, 2)
	for name, f := range map[string]func(){
		"wrong rows": func() { Parse(g, "..") },
		"wrong cols": func() { Parse(g, "...", "..") },
		"bad char":   func() { Parse(g, "..", ".x") },
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

func TestFromBits(t *testing.T) {
	g := geom.NewSquareGrid(2, 2)
	m := FromBits(g, []bool{true, false, false, true})
	if !m.At(geom.Coord{Col: 0, Row: 0}) || !m.At(geom.Coord{Col: 1, Row: 1}) {
		t.Error("FromBits contents wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	FromBits(g, []bool{true})
}

func TestNamed(t *testing.T) {
	terrain := geom.Rect{MaxX: 80, MaxY: 80}
	for name, want := range map[string]string{
		"blobs": "blobs-4", "gradient": "gradient", "stripes": "stripes", "solid": "const-1.00",
	} {
		mk, err := Named(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := mk(terrain, 7).Name(); got != want {
			t.Errorf("%s builds %q, want %q", name, got, want)
		}
	}
	// Blob shapes come from the seed+2 stream.
	mk, _ := Named("blobs")
	want := RandomBlobs(4, terrain, 8, 80.0/6, rand.New(rand.NewSource(9)))
	if got := mk(terrain, 7).(Blobs); got.Items[0] != want.Items[0] {
		t.Errorf("blobs from seed 7 = %+v, want the seed-9 stream %+v", got.Items[0], want.Items[0])
	}
	if _, err := Named("plasma"); err == nil {
		t.Error("unknown phenomenon accepted")
	}
}
