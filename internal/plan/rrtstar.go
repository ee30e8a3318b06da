// Package plan implements the motion planner from the paper's mission
// setup (§V-A): an optimal rapidly-exploring random tree (RRT*) that
// computes a collision-free path from the start to a goal region, which
// the PID tracker then follows.
package plan

import (
	"errors"
	"fmt"
	"math"

	"roboads/internal/stat"
	"roboads/internal/world"
)

// Config parameterizes the RRT* search.
type Config struct {
	// MaxIterations bounds the number of sampling iterations.
	MaxIterations int
	// StepSize is the steering extension length in meters.
	StepSize float64
	// GoalRadius is the goal region radius in meters.
	GoalRadius float64
	// GoalBias is the probability of sampling the goal directly.
	GoalBias float64
	// Margin is the clearance (robot radius) kept from obstacles.
	Margin float64
	// RewireRadius is the neighborhood radius for the rewiring step.
	RewireRadius float64
}

// DefaultConfig returns the planner configuration used by the
// experiments, tuned for the 4×4 m lab arena.
func DefaultConfig() Config {
	return Config{
		MaxIterations: 4000,
		StepSize:      0.25,
		GoalRadius:    0.15,
		GoalBias:      0.08,
		Margin:        0.07,
		RewireRadius:  0.5,
	}
}

// ErrNoPath indicates the planner exhausted its iteration budget without
// reaching the goal region.
var ErrNoPath = errors.New("plan: no path found")

// ErrConfig indicates a Config no search can run on.
var ErrConfig = errors.New("plan: invalid config")

// validate rejects the configurations on which the search would only burn
// its budget on duplicate or NaN candidates. The negated comparisons also
// catch NaN. RewireRadius 0 (no neighbourhood: plain RRT) is legal.
func (c Config) validate() error {
	switch {
	case c.MaxIterations <= 0:
		return fmt.Errorf("%w: MaxIterations %d must be positive", ErrConfig, c.MaxIterations)
	case !(c.StepSize > 0):
		return fmt.Errorf("%w: StepSize %v must be positive", ErrConfig, c.StepSize)
	case !(c.GoalRadius >= 0):
		return fmt.Errorf("%w: GoalRadius %v must not be negative", ErrConfig, c.GoalRadius)
	case !(c.Margin >= 0):
		return fmt.Errorf("%w: Margin %v must not be negative", ErrConfig, c.Margin)
	case !(c.RewireRadius >= 0):
		return fmt.Errorf("%w: RewireRadius %v must not be negative", ErrConfig, c.RewireRadius)
	}
	return nil
}

type node struct {
	p      world.Point
	parent int
	cost   float64
}

// Plan runs RRT* on m from start to goal and returns the waypoint list
// (start first, a point inside the goal region last).
func Plan(m *world.Map, start, goal world.Point, cfg Config, rng *stat.RNG) ([]world.Point, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !m.Free(start, cfg.Margin) {
		return nil, fmt.Errorf("plan: start %v not in free space", start)
	}
	if !m.Free(goal, cfg.Margin) {
		return nil, fmt.Errorf("plan: goal %v not in free space", goal)
	}
	nodes, bestGoal := growTree(m, start, goal, cfg, rng)
	if bestGoal < 0 {
		return nil, ErrNoPath
	}
	return extractPath(nodes, bestGoal), nil
}

// growTree runs the sampling loop and returns the tree with the index of
// its cheapest node inside the goal region, -1 when none got there.
func growTree(m *world.Map, start, goal world.Point, cfg Config, rng *stat.RNG) ([]node, int) {
	nodes := []node{{p: start, parent: -1, cost: 0}}
	index := newNodeIndex(m.Bounds, cfg)
	index.insert(0, start)
	bestGoal := -1
	bestCost := math.Inf(1)

	width := m.Bounds.Max.X - m.Bounds.Min.X
	height := m.Bounds.Max.Y - m.Bounds.Min.Y

	for it := 0; it < cfg.MaxIterations; it++ {
		// Sample (goal-biased) a target point.
		var sample world.Point
		if rng.Float64() < cfg.GoalBias {
			sample = goal
		} else {
			sample = world.Point{
				X: m.Bounds.Min.X + rng.Float64()*width,
				Y: m.Bounds.Min.Y + rng.Float64()*height,
			}
		}

		// Steer from the nearest node toward the sample.
		nearest := index.nearest(nodes, sample)
		candidate := steer(nodes[nearest].p, sample, cfg.StepSize)
		if !m.Free(candidate, cfg.Margin) {
			continue
		}

		// Choose the lowest-cost collision-free parent in the
		// neighborhood (the RRT* "choose parent" step). The neighbors
		// come in no particular order, so among equal costs the lowest
		// index wins explicitly — and the nearest node, the incumbent,
		// yields only to a strictly cheaper one — which is what a scan
		// in index order with a strict comparison selects.
		neighbors, dists := index.near(nodes, candidate, cfg.RewireRadius)
		parent, parentCost := nearest, nodes[nearest].cost+nodes[nearest].p.Dist(candidate)
		for j, ni32 := range neighbors {
			ni := int(ni32)
			c := nodes[ni].cost + dists[j]
			if (c < parentCost || (c == parentCost && parent != nearest && ni < parent)) &&
				m.SegmentFree(world.Segment{A: nodes[ni].p, B: candidate}, cfg.Margin, 0) {
				parent, parentCost = ni, c
			}
		}
		if !m.SegmentFree(world.Segment{A: nodes[parent].p, B: candidate}, cfg.Margin, 0) {
			continue
		}
		newIdx := len(nodes)
		nodes = append(nodes, node{p: candidate, parent: parent, cost: parentCost})
		index.insert(newIdx, candidate)

		// Rewire the neighborhood through the new node where cheaper.
		for j, ni := range neighbors {
			through := parentCost + dists[j]
			if through < nodes[ni].cost &&
				m.SegmentFree(world.Segment{A: candidate, B: nodes[ni].p}, cfg.Margin, 0) {
				nodes[ni].parent = newIdx
				nodes[ni].cost = through
			}
		}

		// Track the best goal-region entry.
		if candidate.Dist(goal) <= cfg.GoalRadius && parentCost < bestCost {
			bestGoal = newIdx
			bestCost = parentCost
		}
	}
	return nodes, bestGoal
}

func steer(from, toward world.Point, step float64) world.Point {
	d := from.Dist(toward)
	if d <= step {
		return toward
	}
	t := step / d
	return world.Point{X: from.X + t*(toward.X-from.X), Y: from.Y + t*(toward.Y-from.Y)}
}

func extractPath(nodes []node, goalIdx int) []world.Point {
	var rev []world.Point
	for i := goalIdx; i >= 0; i = nodes[i].parent {
		rev = append(rev, nodes[i].p)
	}
	out := make([]world.Point, len(rev))
	for i, p := range rev {
		out[len(rev)-1-i] = p
	}
	return out
}

// PathLength returns the total arc length of a waypoint path.
func PathLength(path []world.Point) float64 {
	var sum float64
	for i := 1; i < len(path); i++ {
		sum += path[i].Dist(path[i-1])
	}
	return sum
}

// Resample returns the path re-discretized at approximately the given
// spacing, preserving the endpoints. It makes tracker lookahead behavior
// independent of the planner's variable segment lengths.
func Resample(path []world.Point, spacing float64) []world.Point {
	if len(path) < 2 || spacing <= 0 {
		out := make([]world.Point, len(path))
		copy(out, path)
		return out
	}
	out := []world.Point{path[0]}
	carry := 0.0
	for i := 1; i < len(path); i++ {
		seg := world.Segment{A: path[i-1], B: path[i]}
		length := seg.Length()
		for carry+length >= spacing {
			t := (spacing - carry) / length
			p := world.Point{
				X: seg.A.X + t*(seg.B.X-seg.A.X),
				Y: seg.A.Y + t*(seg.B.Y-seg.A.Y),
			}
			out = append(out, p)
			seg.A = p
			length = seg.Length()
			carry = 0
		}
		carry += length
	}
	last := path[len(path)-1]
	if out[len(out)-1].Dist(last) > 1e-9 {
		out = append(out, last)
	}
	return out
}
