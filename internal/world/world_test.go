package world

import (
	"math"
	"testing"
	"testing/quick"

	"roboads/internal/stat"
	"roboads/internal/testkit"
)

func TestPointOps(t *testing.T) {
	p, q := Point{1, 2}, Point{3, 5}
	if got := p.Add(q); got != (Point{4, 7}) {
		t.Fatalf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dist(Point{4, 6}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Dist = %v", got)
	}
}

func TestRectNormalizationAndContains(t *testing.T) {
	r := NewRect(2, 3, 0, 1) // corners given out of order
	if r.Min != (Point{0, 1}) || r.Max != (Point{2, 3}) {
		t.Fatalf("NewRect = %+v", r)
	}
	if !r.Contains(Point{1, 2}) {
		t.Fatal("interior point rejected")
	}
	if !r.Contains(Point{0, 1}) {
		t.Fatal("boundary point rejected")
	}
	if r.Contains(Point{-0.1, 2}) {
		t.Fatal("exterior point accepted")
	}
}

func TestRectInflateAndEdges(t *testing.T) {
	r := NewRect(0, 0, 2, 2).Inflate(0.5)
	if r.Min != (Point{-0.5, -0.5}) || r.Max != (Point{2.5, 2.5}) {
		t.Fatalf("Inflate = %+v", r)
	}
	edges := NewRect(0, 0, 1, 1).Edges()
	if len(edges) != 4 {
		t.Fatalf("edges = %d", len(edges))
	}
	var perim float64
	for _, e := range edges {
		perim += e.Length()
	}
	if math.Abs(perim-4) > 1e-12 {
		t.Fatalf("perimeter = %v", perim)
	}
}

func TestMapFree(t *testing.T) {
	m := NewArena(4, 4)
	m.AddObstacle(NewRect(1, 1, 2, 2))
	if !m.Free(Point{0.5, 0.5}, 0.1) {
		t.Fatal("free point rejected")
	}
	if m.Free(Point{1.5, 1.5}, 0) {
		t.Fatal("obstacle interior accepted")
	}
	// Margin pushes the robot away from both walls and obstacles.
	if m.Free(Point{0.05, 0.5}, 0.1) {
		t.Fatal("point within wall margin accepted")
	}
	if m.Free(Point{0.95, 1.5}, 0.1) {
		t.Fatal("point within obstacle margin accepted")
	}
}

func TestSegmentFree(t *testing.T) {
	m := NewArena(4, 4)
	m.AddObstacle(NewRect(1.5, 0, 2.5, 3))
	clear := Segment{Point{0.5, 3.5}, Point{3.5, 3.5}}
	if !m.SegmentFree(clear, 0.1, 0.02) {
		t.Fatal("clear segment rejected")
	}
	blocked := Segment{Point{0.5, 1}, Point{3.5, 1}}
	if m.SegmentFree(blocked, 0.1, 0.02) {
		t.Fatal("blocked segment accepted")
	}
}

func TestRaycastAgainstWalls(t *testing.T) {
	m := NewArena(4, 4)
	origin := Point{1, 1}
	cases := []struct {
		theta float64
		want  float64
	}{
		{0, 3},                        // east wall at x=4
		{math.Pi, 1},                  // west wall at x=0
		{math.Pi / 2, 3},              // north wall at y=4
		{-math.Pi / 2, 1},             // south wall at y=0
		{math.Pi / 4, 3 * math.Sqrt2}, // corner-bound diagonal
	}
	for _, c := range cases {
		got, ok := m.Raycast(origin, c.theta, 100)
		if !ok {
			t.Fatalf("raycast θ=%v missed", c.theta)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("raycast θ=%v = %v, want %v", c.theta, got, c.want)
		}
	}
}

func TestRaycastHitsObstacleFirst(t *testing.T) {
	m := NewArena(4, 4)
	m.AddObstacle(NewRect(2, 0.5, 2.5, 1.5))
	got, ok := m.Raycast(Point{1, 1}, 0, 100)
	if !ok || math.Abs(got-1) > 1e-9 {
		t.Fatalf("raycast = %v ok=%v, want 1", got, ok)
	}
}

func TestRaycastMaxRange(t *testing.T) {
	m := NewArena(4, 4)
	got, ok := m.Raycast(Point{1, 1}, 0, 0.5)
	if ok || got != 0.5 {
		t.Fatalf("raycast clipped = %v ok=%v, want 0.5/false", got, ok)
	}
}

func TestLabArena(t *testing.T) {
	m := LabArena()
	if len(m.Obstacles) != 2 {
		t.Fatalf("obstacles = %d", len(m.Obstacles))
	}
	if !m.Free(Point{0.5, 0.5}, 0.07) {
		t.Fatal("start corner should be free")
	}
	if !m.Free(Point{3.5, 3.5}, 0.07) {
		t.Fatal("goal corner should be free")
	}
}

// Inside the arena, every ray must hit something, and the hit point must
// lie on the arena boundary or an obstacle edge.
func TestPropertyRaycastAlwaysHitsInsideArena(t *testing.T) {
	m := LabArena()
	f := func(seed int64) bool {
		r := stat.NewRNG(seed)
		p := Point{0.1 + 3.8*r.Float64(), 0.1 + 3.8*r.Float64()}
		if !m.Free(p, 0.01) {
			return true // only consider free interior points
		}
		theta := (r.Float64() - 0.5) * 2 * math.Pi
		d, ok := m.Raycast(p, theta, 100)
		if !ok || d <= 0 {
			return false
		}
		hit := Point{p.X + d*math.Cos(theta), p.Y + d*math.Sin(theta)}
		// Hit point stays within (or on) the arena.
		return m.Bounds.Inflate(1e-9).Contains(hit)
	}
	if err := quick.Check(f, testkit.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// Raycast distance must be monotone under max-range truncation.
func TestPropertyRaycastTruncation(t *testing.T) {
	m := LabArena()
	f := func(seed int64) bool {
		r := stat.NewRNG(seed)
		p := Point{0.2 + 3.6*r.Float64(), 0.2 + 3.6*r.Float64()}
		theta := (r.Float64() - 0.5) * 2 * math.Pi
		full, _ := m.Raycast(p, theta, 100)
		clipped, _ := m.Raycast(p, theta, full/2)
		return clipped <= full
	}
	if err := quick.Check(f, testkit.Quick(t, 100)); err != nil {
		t.Fatal(err)
	}
}
