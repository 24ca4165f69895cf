// Package grid provides the mesh and torus network topologies used by the
// routing simulator: coordinates, directions, node identifiers, shortest-path
// (L1) metrics, and the computation of "profitable outlinks" — the outlinks
// that move a packet strictly closer to its destination — which is the only
// destination information a destination-exchangeable routing algorithm may
// observe (Chinn–Leighton–Tompa, Section 2).
//
// Conventions follow the paper: columns are numbered west to east and rows
// south to north. Internally both are 0-based, so Coord{X: 0, Y: 0} is the
// southwest corner and increasing Y moves north.
package grid

import (
	"fmt"
	"math/bits"
)

// Dir identifies one of the four mesh directions. The zero value is North.
type Dir uint8

// The four directions, in the fixed deterministic iteration order used
// throughout the simulator.
const (
	North Dir = iota
	East
	South
	West

	// NumDirs is the number of mesh directions.
	NumDirs = 4

	// NoDir is a sentinel for "no direction" (e.g. the inlink of a packet
	// that has not moved yet).
	NoDir Dir = 4
)

var dirNames = [...]string{"North", "East", "South", "West", "NoDir"}

// String returns the direction's name.
func (d Dir) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Opposite returns the reverse direction. Opposite of NoDir is NoDir.
func (d Dir) Opposite() Dir {
	if d >= NumDirs {
		return NoDir
	}
	return (d + 2) & 3
}

// Delta returns the coordinate change of one hop in direction d.
func (d Dir) Delta() (dx, dy int) {
	if d > NoDir {
		return 0, 0
	}
	return dirDX[d], dirDY[d]
}

// A packet's direction follows from its destination, so Delta looks it up
// rather than switch on it.
var (
	dirDX = [NoDir + 1]int{East: 1, West: -1}
	dirDY = [NoDir + 1]int{North: 1, South: -1}
)

// Horizontal reports whether d is East or West.
func (d Dir) Horizontal() bool { return d == East || d == West }

// DirSet is a bitmask of directions.
type DirSet uint8

// AllDirs contains all four mesh directions.
const AllDirs DirSet = 1<<NumDirs - 1

// Set returns s with d added.
func (s DirSet) Set(d Dir) DirSet { return s | 1<<d }

// Has reports whether d is in the set.
func (s DirSet) Has(d Dir) bool { return s&(1<<d) != 0 }

// Count returns the number of directions in the set.
func (s DirSet) Count() int { return bits.OnesCount8(uint8(s)) }

// DimOrder returns the outlink a dimension-order (row-first) packet takes
// out of its profitable set s, the rule of Section 2's dimension-order
// router: East, else West, else North, else South, else NoDir (s empty).
// Where a torus offers both ways round a dimension (the half-ring tie),
// East beats West and North beats South, so the tie breaks the same way at
// every node.
func (s DirSet) DimOrder() Dir {
	switch {
	case s.Has(East):
		return East
	case s.Has(West):
		return West
	case s.Has(North):
		return North
	case s.Has(South):
		return South
	}
	return NoDir
}

// Dirs returns the directions in the set in canonical order.
func (s DirSet) Dirs() []Dir {
	out := make([]Dir, 0, 4)
	for d := Dir(0); d < NumDirs; d++ {
		if s.Has(d) {
			out = append(out, d)
		}
	}
	return out
}

// String renders the set like "{North East}".
func (s DirSet) String() string {
	str := "{"
	for i, d := range s.Dirs() {
		if i > 0 {
			str += " "
		}
		str += d.String()
	}
	return str + "}"
}

// NodeID is a dense node identifier in [0, W*H).
type NodeID int32

// Pair is one packet's source and destination node, whether a workload
// lists it, a streaming source injects it or the congestion analysis routes
// it. The JSON names src and dst are the scenario spec's (workload.pairs).
type Pair struct {
	Src NodeID `json:"src"`
	Dst NodeID `json:"dst"`
}

// Coord is a mesh coordinate: X is the column (0 = westernmost), Y is the
// row (0 = southernmost).
type Coord struct {
	X, Y int
}

// XY is shorthand for Coord{X: x, Y: y}.
func XY(x, y int) Coord { return Coord{X: x, Y: y} }

// String renders the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Add returns the coordinate one hop away in direction d.
func (c Coord) Add(d Dir) Coord {
	dx, dy := d.Delta()
	return Coord{c.X + dx, c.Y + dy}
}

// Topology is the network type every layer takes: the mesh, or the torus,
// which is the mesh with wraparound links. Its methods are deterministic and
// safe for concurrent readers.
type Topology = *Grid

// EdgeIndex numbers the directed edge leaving node id in direction d, densely
// in [0, NumDirs*N): the slot of that outlink in any flat per-port table.
func EdgeIndex(id NodeID, d Dir) int { return int(id)<<2 | int(d) }

// Grid is the w×h two-dimensional mesh, or with wrap set the torus. The
// engine asks for coordinates, neighbours and profitable outlinks several
// times per packet per step, so no query divides (a node's row is its
// identifier times the reciprocal of the width, computed once here) and none
// branches on where a destination lies.
type Grid struct {
	w, h   int
	wrap   bool
	inv    uint64 // ⌈2^63/w⌉
	rw, rh int64  // ring sizes along sees: w, h on the torus, meshRing on the mesh
}

// meshRing makes a mesh dimension a ring too long to be worth going around:
// above twice any displacement of 31-bit coordinates, so the wrapped way is
// never the shorter one, and small enough that 2·meshRing fits an int64.
const meshRing = 1 << 40

func newGrid(w, h int, wrap bool) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid size %dx%d", w, h))
	}
	g := &Grid{w: w, h: h, wrap: wrap, inv: (1<<63-1)/uint64(w) + 1, rw: meshRing, rh: meshRing}
	if wrap {
		g.rw, g.rh = int64(w), int64(h)
	}
	return g
}

// NewMesh returns a w×h mesh (no wraparound links). Width and height must
// be positive.
func NewMesh(w, h int) *Grid { return newGrid(w, h, false) }

// NewSquareMesh returns the n×n mesh of the paper.
func NewSquareMesh(n int) *Grid { return newGrid(n, n, false) }

// NewTorus returns a w×h torus (mesh with wraparound links). Width and
// height must be positive.
func NewTorus(w, h int) *Grid { return newGrid(w, h, true) }

// NewSquareTorus returns the n×n torus.
func NewSquareTorus(n int) *Grid { return newGrid(n, n, true) }

// Width returns the number of columns.
func (g *Grid) Width() int { return g.w }

// Height returns the number of rows.
func (g *Grid) Height() int { return g.h }

// N returns the number of nodes.
func (g *Grid) N() int { return g.w * g.h }

// Wraparound reports whether the grid is a torus.
func (g *Grid) Wraparound() bool { return g.wrap }

// ID maps a coordinate to its node identifier.
func (g *Grid) ID(c Coord) NodeID {
	if c.X < 0 || c.X >= g.w || c.Y < 0 || c.Y >= g.h {
		panic(fmt.Sprintf("grid: coord %v out of %dx%d grid", c, g.w, g.h))
	}
	return NodeID(c.Y*g.w + c.X)
}

// xy splits a node identifier into column and row. With inv = ⌈2^63/w⌉ =
// (2^63+e)/w for some 0 ≤ e < w, id·inv/2^63 = id/w + e·id/(w·2^63), and
// the error term stays below 1/w because e and id are both under 2^31: the
// integer part is exactly ⌊id/w⌋.
func (g *Grid) xy(id NodeID) (x, y int) {
	hi, _ := bits.Mul64(g.inv, uint64(id)<<1)
	y = int(hi)
	return int(id) - y*g.w, y
}

// CoordOf maps a node identifier back to its coordinate.
func (g *Grid) CoordOf(id NodeID) Coord {
	x, y := g.xy(id)
	return Coord{X: x, Y: y}
}

// Outlinks returns the set of outlinks that exist at id: all four on the
// torus, those not crossing the boundary on the mesh.
func (g *Grid) Outlinks(id NodeID) DirSet {
	if g.wrap {
		return AllDirs
	}
	x, y := g.xy(id)
	// A link exists where the coordinate is short of that edge: a sign bit.
	return DirSet(uint64(y-(g.h-1))>>63)<<North | DirSet(uint64(x-(g.w-1))>>63)<<East |
		DirSet(uint64(-y)>>63)<<South | DirSet(uint64(-x)>>63)<<West
}

// Neighbor returns the node one hop away in direction d, if the outlink
// exists. Torus links wrap around the edges (onto the node itself along a
// dimension of size 1); mesh boundary nodes have no outlink there.
func (g *Grid) Neighbor(id NodeID, d Dir) (NodeID, bool) {
	x, y := g.xy(id)
	dx, dy := d.Delta()
	x, y = x+dx, y+dy
	if g.wrap {
		x, y = fold(x, g.w), fold(y, g.h)
	} else if x < 0 || x >= g.w || y < 0 || y >= g.h {
		return 0, false
	}
	return NodeID(y*g.w + x), true
}

// fold brings a coordinate one step outside [0, m) back around the torus.
func fold(v, m int) int {
	v += m & (v >> 63)         // v < 0
	return v - m&((m-1-v)>>63) // v ≥ m
}

// Dist returns the shortest-path distance between two nodes: L1 on the
// mesh, the shorter way around each dimension on the torus.
func (g *Grid) Dist(a, b NodeID) int {
	ax, ay := g.xy(a)
	bx, by := g.xy(b)
	dx, dy := abs(ax-bx), abs(ay-by)
	if g.wrap {
		if 2*dx > g.w {
			dx = g.w - dx
		}
		if 2*dy > g.h {
			dy = g.h - dy
		}
	}
	return dx + dy
}

// Profitable returns the outlinks of from that move a packet closer to
// dst. On the torus, when the two ways around a dimension are equidistant,
// both directions are profitable.
func (g *Grid) Profitable(from, dst NodeID) DirSet {
	fx, fy := g.xy(from)
	dx, dy := g.xy(dst)
	return along(int64(dx-fx), g.rw, East, West) | along(int64(dy-fy), g.rh, North, South)
}

// along returns the profitable directions along one dimension, a ring of m
// nodes, for the displacement d = dst - from: up toward larger coordinates,
// down toward smaller ones. The engine asks this of random destinations, so
// every compare on d would be a coin flip to the branch predictor; each one
// is read off a sign bit instead.
func along(d, m int64, up, down Dir) DirSet {
	d += m & (d >> 63) // hops going up, around the edge; going down takes m-d
	t := 2*d - m       // negative where up is the shorter way, positive where down is, 0 at the tie
	nz := -d           // d is in [0, m) now, so negative unless the packet is home in this dimension
	return DirSet(uint64((t-1)&nz)>>63)<<up | DirSet(uint64(^t&nz)>>63)<<down
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
