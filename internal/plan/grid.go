package plan

import (
	"math"

	"roboads/internal/world"
)

// maxGridDim caps the cells per axis, so that a tiny RewireRadius on a
// large arena widens the cells instead of allocating an enormous grid.
const maxGridDim = 256

// nodeIndex is a uniform grid over the arena holding the tree's nodes,
// owned by one Plan call. It answers the planner's two proximity queries
// with exactly the result of a scan over every node: the same math.Hypot
// distances decide, and what the grid skips is skipped only on bounds
// that hold with a wide margin over floating-point rounding (slack).
//
// A cell's nodes form a list threaded through next, newest first.
type nodeIndex struct {
	min    world.Point
	cell   float64 // cell edge length
	inv    float64 // 1 / cell
	nx, ny int
	// slack exceeds by orders of magnitude the rounding error of a
	// coordinate difference or a cell boundary on this arena (a few ulps
	// of its largest coordinate) and is far below any useful cell size.
	slack float64
	head  []int32 // per cell: its newest node, -1 when empty
	next  []int32 // per node: the next older node of its cell, -1 at the end

	// near's result, reused across queries.
	nearIdx  []int32
	nearDist []float64
}

// newNodeIndex sizes the grid for the rewiring neighbourhood: cells of
// about half the radius keep both the neighbourhood's bounding box and the
// nearest-node rings to a few dozen nodes. Without rewiring (plain RRT)
// the step size is the tree's length scale.
func newNodeIndex(bounds world.Rect, cfg Config) *nodeIndex {
	cell := cfg.RewireRadius / 2
	if cell <= 0 {
		cell = cfg.StepSize
	}
	width := bounds.Max.X - bounds.Min.X
	height := bounds.Max.Y - bounds.Min.Y
	cell = math.Max(cell, math.Max(width, height)/maxGridDim)
	dim := func(extent float64) int {
		n := math.Ceil(extent / cell)
		if !(n >= 1) {
			return 1
		}
		return int(math.Min(n, maxGridDim))
	}
	g := &nodeIndex{
		min:  bounds.Min,
		cell: cell,
		inv:  1 / cell,
		nx:   dim(width),
		ny:   dim(height),
	}
	scale := math.Max(
		math.Max(math.Abs(bounds.Min.X), math.Abs(bounds.Max.X)),
		math.Max(math.Abs(bounds.Min.Y), math.Abs(bounds.Max.Y)))
	g.slack = 1e-9 * scale
	g.head = make([]int32, g.nx*g.ny)
	for i := range g.head {
		g.head[i] = -1
	}
	return g
}

// cellCoord maps an offset from the grid's origin to a cell coordinate in
// [0, n). It is monotone in the offset, which is all the queries rely on:
// the edge cells absorb whatever lies on or beyond the arena's border.
func (g *nodeIndex) cellCoord(offset float64, n int) int {
	v := offset * g.inv
	if !(v > 0) {
		return 0
	}
	if v >= float64(n) {
		return n - 1
	}
	return int(v)
}

// insert adds node i at p; nodes must be inserted in index order, from 0.
func (g *nodeIndex) insert(i int, p world.Point) {
	c := g.cellCoord(p.Y-g.min.Y, g.ny)*g.nx + g.cellCoord(p.X-g.min.X, g.nx)
	g.next = append(g.next, g.head[c])
	g.head[c] = int32(i)
}

// nearest returns the node closest to q, the lowest index among equals:
// it searches square rings of cells outward from q's cell and stops once
// every cell not yet visited lies farther away than the best node found.
func (g *nodeIndex) nearest(nodes []node, q world.Point) int {
	cx := g.cellCoord(q.X-g.min.X, g.nx)
	cy := g.cellCoord(q.Y-g.min.Y, g.ny)
	best, bestDist := 0, math.Inf(1)
	// bound pre-filters on the squared distance: a node that far cannot
	// tie bestDist, so its Hypot need not be computed.
	bound := math.Inf(1)
	scan := func(x, y int) {
		for i := g.head[y*g.nx+x]; i >= 0; i = g.next[i] {
			dx, dy := nodes[i].p.X-q.X, nodes[i].p.Y-q.Y
			if dx*dx+dy*dy > bound {
				continue
			}
			d := math.Hypot(dx, dy)
			if d < bestDist || (d == bestDist && int(i) < best) {
				best, bestDist = int(i), d
				bound = d * d * (1 + 1e-12)
			}
		}
	}
	for r := 0; ; r++ {
		x0, x1, y0, y1 := cx-r, cx+r, cy-r, cy+r
		if x0 < 0 && y0 < 0 && x1 >= g.nx && y1 >= g.ny {
			break // the ring lies wholly outside the grid
		}
		for y := max(y0, 0); y <= min(y1, g.ny-1); y++ {
			if y == y0 || y == y1 {
				for x := max(x0, 0); x <= min(x1, g.nx-1); x++ {
					scan(x, y)
				}
				continue
			}
			if x0 >= 0 {
				scan(x0, y)
			}
			if x1 < g.nx {
				scan(x1, y)
			}
		}
		// A node outside rings 0..r is at least r cells from q along one
		// axis, and Hypot is no smaller than either of its arguments.
		if bestDist < float64(r)*g.cell-g.slack {
			break
		}
	}
	return best
}

// near returns the nodes within radius of q with their distances to it,
// in no particular order: exactly the nodes whose Hypot distance is at
// most radius. The slices are valid until the next call.
func (g *nodeIndex) near(nodes []node, q world.Point, radius float64) ([]int32, []float64) {
	g.nearIdx, g.nearDist = g.nearIdx[:0], g.nearDist[:0]
	reach := radius + g.slack
	x0 := g.cellCoord(q.X-reach-g.min.X, g.nx)
	x1 := g.cellCoord(q.X+reach-g.min.X, g.nx)
	y0 := g.cellCoord(q.Y-reach-g.min.Y, g.ny)
	y1 := g.cellCoord(q.Y+reach-g.min.Y, g.ny)
	// Squared distances above bound cannot round to a Hypot within radius.
	bound := radius * radius * (1 + 1e-12)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for i := g.head[y*g.nx+x]; i >= 0; i = g.next[i] {
				dx, dy := nodes[i].p.X-q.X, nodes[i].p.Y-q.Y
				if dx*dx+dy*dy > bound {
					continue
				}
				if d := math.Hypot(dx, dy); d <= radius {
					g.nearIdx = append(g.nearIdx, i)
					g.nearDist = append(g.nearDist, d)
				}
			}
		}
	}
	return g.nearIdx, g.nearDist
}
