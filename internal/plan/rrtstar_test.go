package plan

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"roboads/internal/stat"
	"roboads/internal/testkit"
	"roboads/internal/world"
)

func labMission() (*world.Map, world.Point, world.Point) {
	return world.LabArena(), world.Point{X: 0.5, Y: 0.5}, world.Point{X: 3.5, Y: 3.5}
}

func TestPlanFindsCollisionFreePath(t *testing.T) {
	m, start, goal := labMission()
	cfg := DefaultConfig()
	path, err := Plan(m, start, goal, cfg, stat.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 2 {
		t.Fatalf("path too short: %d waypoints", len(path))
	}
	if path[0] != start {
		t.Fatalf("path starts at %v", path[0])
	}
	if path[len(path)-1].Dist(goal) > cfg.GoalRadius {
		t.Fatalf("path ends %.3f m from goal", path[len(path)-1].Dist(goal))
	}
	for i := 1; i < len(path); i++ {
		seg := world.Segment{A: path[i-1], B: path[i]}
		if !m.SegmentFree(seg, cfg.Margin, 0.01) {
			t.Fatalf("segment %d collides", i)
		}
	}
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	m, start, goal := labMission()
	cfg := DefaultConfig()
	p1, err1 := Plan(m, start, goal, cfg, stat.NewRNG(7))
	p2, err2 := Plan(m, start, goal, cfg, stat.NewRNG(7))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(p1) != len(p2) {
		t.Fatalf("lengths differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("waypoint %d differs", i)
		}
	}
}

func TestPlanRejectsBlockedEndpoints(t *testing.T) {
	m, start, goal := labMission()
	cfg := DefaultConfig()
	inObstacle := m.Obstacles[0].Center()
	if _, err := Plan(m, inObstacle, goal, cfg, stat.NewRNG(1)); err == nil {
		t.Fatal("expected error for blocked start")
	}
	if _, err := Plan(m, start, inObstacle, cfg, stat.NewRNG(1)); err == nil {
		t.Fatal("expected error for blocked goal")
	}
}

func TestPlanNoPath(t *testing.T) {
	// Wall off the arena's right half completely.
	m := world.NewArena(4, 4)
	m.AddObstacle(world.NewRect(1.9, 0, 2.1, 4))
	cfg := DefaultConfig()
	cfg.MaxIterations = 500
	_, err := Plan(m, world.Point{X: 0.5, Y: 0.5}, world.Point{X: 3.5, Y: 3.5}, cfg, stat.NewRNG(1))
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestRRTStarImprovesOverRRT(t *testing.T) {
	// With rewiring enabled the returned path should not be wildly longer
	// than the straight-line distance; this catches regressions where the
	// choose-parent/rewire steps stop working.
	m, start, goal := labMission()
	cfg := DefaultConfig()
	path, err := Plan(m, start, goal, cfg, stat.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	straight := start.Dist(goal)
	if got := PathLength(path); got > 1.6*straight {
		t.Fatalf("path length %.2f vs straight %.2f — rewiring ineffective?", got, straight)
	}
}

func TestPathLength(t *testing.T) {
	path := []world.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 4}}
	if got := PathLength(path); math.Abs(got-7) > 1e-12 {
		t.Fatalf("PathLength = %v", got)
	}
	if PathLength(nil) != 0 {
		t.Fatal("empty path should have zero length")
	}
}

func TestResampleSpacing(t *testing.T) {
	path := []world.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	out := Resample(path, 0.25)
	if len(out) != 5 {
		t.Fatalf("resampled to %d points: %v", len(out), out)
	}
	for i := 1; i < len(out); i++ {
		d := out[i].Dist(out[i-1])
		if d > 0.25+1e-9 {
			t.Fatalf("gap %d is %v", i, d)
		}
	}
	if out[len(out)-1] != path[1] {
		t.Fatal("endpoint dropped")
	}
}

func TestResampleDegenerate(t *testing.T) {
	single := []world.Point{{X: 1, Y: 1}}
	if got := Resample(single, 0.1); len(got) != 1 || got[0] != single[0] {
		t.Fatalf("Resample single = %v", got)
	}
	if got := Resample(nil, 0.1); len(got) != 0 {
		t.Fatalf("Resample nil = %v", got)
	}
}

// Resampling preserves total length (within discretization tolerance) and
// every resampled point stays near the original polyline.
func TestPropertyResamplePreservesLength(t *testing.T) {
	f := func(seed int64) bool {
		r := stat.NewRNG(seed)
		n := 2 + r.IntN(5)
		path := make([]world.Point, n)
		for i := range path {
			path[i] = world.Point{X: r.Float64() * 4, Y: r.Float64() * 4}
		}
		out := Resample(path, 0.05)
		return math.Abs(PathLength(out)-PathLength(path)) < 0.06*float64(n)
	}
	if err := quick.Check(f, testkit.Quick(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// --- the linear-scan reference ----------------------------------------------
//
// nearestNode, nearNodes and growTreeLinear are the planner as it was
// before the grid index: every query scans every node. They live here as
// the specification the index is tested against, node for node.

func nearestNode(nodes []node, p world.Point) int {
	best, bestDist := 0, math.Inf(1)
	for i, n := range nodes {
		if d := n.p.Dist(p); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func nearNodes(nodes []node, p world.Point, radius float64) []int {
	var out []int
	for i, n := range nodes {
		if n.p.Dist(p) <= radius {
			out = append(out, i)
		}
	}
	return out
}

func growTreeLinear(m *world.Map, start, goal world.Point, cfg Config, rng *stat.RNG) ([]node, int) {
	nodes := []node{{p: start, parent: -1, cost: 0}}
	bestGoal := -1
	bestCost := math.Inf(1)

	width := m.Bounds.Max.X - m.Bounds.Min.X
	height := m.Bounds.Max.Y - m.Bounds.Min.Y

	for it := 0; it < cfg.MaxIterations; it++ {
		var sample world.Point
		if rng.Float64() < cfg.GoalBias {
			sample = goal
		} else {
			sample = world.Point{
				X: m.Bounds.Min.X + rng.Float64()*width,
				Y: m.Bounds.Min.Y + rng.Float64()*height,
			}
		}

		nearest := nearestNode(nodes, sample)
		candidate := steer(nodes[nearest].p, sample, cfg.StepSize)
		if !m.Free(candidate, cfg.Margin) {
			continue
		}

		neighbors := nearNodes(nodes, candidate, cfg.RewireRadius)
		parent, parentCost := nearest, nodes[nearest].cost+nodes[nearest].p.Dist(candidate)
		for _, ni := range neighbors {
			c := nodes[ni].cost + nodes[ni].p.Dist(candidate)
			if c < parentCost && m.SegmentFree(world.Segment{A: nodes[ni].p, B: candidate}, cfg.Margin, 0) {
				parent, parentCost = ni, c
			}
		}
		if !m.SegmentFree(world.Segment{A: nodes[parent].p, B: candidate}, cfg.Margin, 0) {
			continue
		}
		newIdx := len(nodes)
		nodes = append(nodes, node{p: candidate, parent: parent, cost: parentCost})

		for _, ni := range neighbors {
			through := parentCost + candidate.Dist(nodes[ni].p)
			if through < nodes[ni].cost &&
				m.SegmentFree(world.Segment{A: candidate, B: nodes[ni].p}, cfg.Margin, 0) {
				nodes[ni].parent = newIdx
				nodes[ni].cost = through
			}
		}

		if candidate.Dist(goal) <= cfg.GoalRadius && parentCost < bestCost {
			bestGoal = newIdx
			bestCost = parentCost
		}
	}
	return nodes, bestGoal
}

func warehouseMission() (*world.Map, world.Point, world.Point) {
	return world.WarehouseArena(), world.Point{X: 0.6, Y: 0.6}, world.Point{X: 7.2, Y: 5.4}
}

// The indexed planner grows the very tree the linear scans grow: every
// node's point, parent and cost, the goal entry and hence the path.
func TestPlanMatchesLinearScan(t *testing.T) {
	arenas := []struct {
		name    string
		mission func() (*world.Map, world.Point, world.Point)
	}{{"lab", labMission}, {"warehouse", warehouseMission}}

	short := DefaultConfig()
	short.MaxIterations = 600
	wide := short // a neighbourhood of many cells, a goal nearly always sampled
	wide.StepSize, wide.RewireRadius, wide.GoalBias, wide.Margin = 0.4, 1.3, 0.3, 0
	fine := short // cells smaller than a step; most of the arena in no neighbourhood
	fine.StepSize, fine.RewireRadius, fine.GoalRadius = 0.3, 0.11, 0.4
	rrt := short // no rewiring: the grid falls back on the step size
	rrt.RewireRadius = 0
	configs := []struct {
		name  string
		cfg   Config
		seeds int
	}{{"short", short, 20}, {"wide", wide, 20}, {"fine", fine, 20}, {"rrt", rrt, 20}, {"default", DefaultConfig(), 1}}

	for _, a := range arenas {
		for _, c := range configs {
			for seed := int64(1); seed <= int64(c.seeds); seed++ {
				m, start, goal := a.mission()
				got, gotGoal := growTree(m, start, goal, c.cfg, stat.NewRNG(seed))
				want, wantGoal := growTreeLinear(m, start, goal, c.cfg, stat.NewRNG(seed))
				if gotGoal != wantGoal || len(got) != len(want) {
					t.Fatalf("%s/%s seed %d: %d nodes, goal entry %d; linear scan %d nodes, goal entry %d",
						a.name, c.name, seed, len(got), gotGoal, len(want), wantGoal)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s seed %d: node %d = %+v, linear scan %+v", a.name, c.name, seed, i, got[i], want[i])
					}
				}
				path, err := Plan(m, start, goal, c.cfg, stat.NewRNG(seed))
				if wantGoal < 0 {
					if !errors.Is(err, ErrNoPath) {
						t.Fatalf("%s/%s seed %d: err = %v, want ErrNoPath", a.name, c.name, seed, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", a.name, c.name, seed, err)
				}
				if wantPath := extractPath(want, wantGoal); !slices.Equal(path, wantPath) {
					t.Fatalf("%s/%s seed %d: path %v, linear scan %v", a.name, c.name, seed, path, wantPath)
				}
			}
		}
	}
}

// On point sets built to sit on the index's seams — duplicates, points
// exactly on cell edges and on the arena's border, points at distance
// exactly radius from a query, queries in the corners — the index returns
// the scan's nearest node and the scan's neighbour set.
func TestPropertyIndexMatchesLinearScan(t *testing.T) {
	check := func(seed int64) bool {
		r := stat.NewRNG(seed)
		bounds := world.NewRect(-1, 2, -1+2+4*r.Float64(), 2+2+4*r.Float64())
		cfg := DefaultConfig()
		cfg.RewireRadius = []float64{0.5, 0.25, 0.03, 1.7, 0}[r.IntN(5)]
		radius := cfg.RewireRadius
		g := newNodeIndex(bounds, cfg)
		width, height := bounds.Max.X-bounds.Min.X, bounds.Max.Y-bounds.Min.Y

		corners := []world.Point{bounds.Min, bounds.Max, {X: bounds.Min.X, Y: bounds.Max.Y}, {X: bounds.Max.X, Y: bounds.Min.Y}}
		queries := append([]world.Point(nil), corners...)
		for i := 0; i < 12; i++ {
			queries = append(queries, world.Point{X: bounds.Min.X + r.Float64()*width, Y: bounds.Min.Y + r.Float64()*height})
		}
		onEdge := func(min float64, n int) float64 { return min + float64(r.IntN(n+1))*g.cell }

		var nodes []node
		add := func(p world.Point) {
			if !bounds.Contains(p) {
				return
			}
			g.insert(len(nodes), p)
			nodes = append(nodes, node{p: p})
		}
		add(bounds.Center())
		for len(nodes) < 300 {
			q := queries[r.IntN(len(queries))]
			switch r.IntN(6) {
			case 0: // a duplicate
				add(nodes[r.IntN(len(nodes))].p)
			case 1: // on a cell corner
				add(world.Point{X: onEdge(bounds.Min.X, g.nx), Y: onEdge(bounds.Min.Y, g.ny)})
			case 2: // on a cell edge
				add(world.Point{X: onEdge(bounds.Min.X, g.nx), Y: bounds.Min.Y + r.Float64()*height})
			case 3: // at distance radius from a query along an axis: exactly, up to rounding
				add(world.Point{X: q.X + radius*float64(1-2*r.IntN(2)), Y: q.Y})
				add(world.Point{X: q.X, Y: q.Y + radius*float64(1-2*r.IntN(2))})
			case 4: // at distance radius in some direction, one ulp either way
				th := 2 * math.Pi * r.Float64()
				add(world.Point{X: q.X + radius*math.Cos(th), Y: q.Y + radius*math.Sin(th)})
			default:
				add(world.Point{X: bounds.Min.X + r.Float64()*width, Y: bounds.Min.Y + r.Float64()*height})
			}
		}

		for _, q := range queries {
			if got, want := g.nearest(nodes, q), nearestNode(nodes, q); got != want {
				t.Logf("seed %d radius %v: nearest(%v) = %d, linear scan %d", seed, radius, q, got, want)
				return false
			}
			idx, dist := g.near(nodes, q, radius)
			got := make([]int, len(idx))
			for j, i := range idx {
				got[j] = int(i)
				if dist[j] != nodes[i].p.Dist(q) {
					t.Logf("seed %d: near(%v) distance to node %d = %v, Dist %v", seed, q, i, dist[j], nodes[i].p.Dist(q))
					return false
				}
			}
			slices.Sort(got)
			if want := nearNodes(nodes, q, radius); !slices.Equal(got, want) {
				t.Logf("seed %d radius %v: near(%v) = %v, linear scan %v", seed, radius, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, testkit.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestPlanRejectsInvalidConfig(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"MaxIterations zero", func(c *Config) { c.MaxIterations = 0 }},
		{"MaxIterations negative", func(c *Config) { c.MaxIterations = -5 }},
		{"StepSize zero", func(c *Config) { c.StepSize = 0 }},
		{"StepSize negative", func(c *Config) { c.StepSize = -0.25 }},
		{"StepSize NaN", func(c *Config) { c.StepSize = nan }},
		{"GoalRadius negative", func(c *Config) { c.GoalRadius = -0.1 }},
		{"GoalRadius NaN", func(c *Config) { c.GoalRadius = nan }},
		{"Margin negative", func(c *Config) { c.Margin = -0.07 }},
		{"Margin NaN", func(c *Config) { c.Margin = nan }},
		{"RewireRadius negative", func(c *Config) { c.RewireRadius = -0.5 }},
		{"RewireRadius NaN", func(c *Config) { c.RewireRadius = nan }},
	}
	m, start, goal := labMission()
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		rng := stat.NewRNG(1)
		if _, err := Plan(m, start, goal, cfg, rng); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", tc.name, err)
		}
		if got, want := rng.Float64(), stat.NewRNG(1).Float64(); got != want {
			t.Errorf("%s: Plan drew from the RNG before rejecting the config", tc.name)
		}
	}

	// Plain RRT and a zero margin or goal radius stay legal.
	cfg := DefaultConfig()
	cfg.RewireRadius, cfg.Margin = 0, 0
	if _, err := Plan(m, start, goal, cfg, stat.NewRNG(1)); err != nil {
		t.Errorf("RewireRadius 0: %v", err)
	}
	cfg = DefaultConfig()
	cfg.GoalRadius, cfg.MaxIterations = 0, 50
	if _, err := Plan(m, start, goal, cfg, stat.NewRNG(1)); !errors.Is(err, ErrNoPath) {
		t.Errorf("GoalRadius 0: err = %v, want ErrNoPath", err)
	}
}

var benchPath []world.Point

func BenchmarkPlan(b *testing.B) {
	for _, a := range []struct {
		name    string
		mission func() (*world.Map, world.Point, world.Point)
	}{{"lab", labMission}, {"warehouse", warehouseMission}} {
		b.Run(a.name, func(b *testing.B) {
			m, start, goal := a.mission()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				path, err := Plan(m, start, goal, DefaultConfig(), stat.NewRNG(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				benchPath = path
			}
		})
	}
}
