package adversary

import (
	"fmt"

	"meshroute/internal/sim"
)

// verifier checks Lemmas 1–8 of Section 4.1 after every step of the
// construction (for the permutation case, H = 1).
type verifier struct {
	c   *Construction
	net *sim.Network
	// prevN[i], prevE[i]: packets of current kind N_i/E_i inside the
	// i-box after the previous step.
	prevN []int
	prevE []int
}

func newVerifier(c *Construction, net *sim.Network) *verifier {
	v := &verifier{c: c, net: net, prevN: make([]int, c.Par.L+1), prevE: make([]int, c.Par.L+1)}
	v.prevN, v.prevE = v.countInBoxes()
	return v
}

// countInBoxes counts, for every class i, the construction packets of
// current kind N_i (E_i) located inside the i-box.
func (v *verifier) countInBoxes() (nc, ec []int) {
	l := v.c.Par.L
	nc = make([]int, l+1)
	ec = make([]int, l+1)
	st := &v.net.P
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		kind, i := v.c.kindOf(st.Dst[p])
		if kind == KindNone || st.Delivered(p) {
			continue
		}
		if v.c.inBoxKind(v.c.local(st.At[p]), kind, i) {
			if kind == KindN {
				nc[i]++
			} else {
				ec[i]++
			}
		}
	}
	return nc, ec
}

// check validates the lemmas immediately after step t.
func (v *verifier) check(t int) error {
	c := v.c
	par := c.Par
	dn, l := par.DN, par.L

	// Per-packet invariants: Lemmas 5–8 and minimality of box containment.
	st := &v.net.P
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		kind, j := c.kindOf(st.Dst[p])
		if kind == KindNone || st.Delivered(p) {
			continue
		}
		lc := c.local(st.At[p])
		switch kind {
		case KindN:
			// An N_j-packet can never be more than Delta east of
			// the N_j-column (Delta = 0 for minimal routers).
			if lc.X > c.nCol(j)+c.Delta {
				return fmt.Errorf("adversary: step %d: N_%d packet %d east of its column at %v", t, j, p.ID(), lc)
			}
			// Lemma 7: for t <= j·dn, not at/north of E_j-row while
			// west of N_j-column (minimal routers only; a strayed
			// packet may legally re-enter that region).
			if c.Delta == 0 && t <= j*dn && lc.Y >= c.eRow(j) && lc.X < c.nCol(j) {
				return fmt.Errorf("adversary: step %d: Lemma 7 violated by N_%d packet %d at %v", t, j, p.ID(), lc)
			}
		case KindE:
			if lc.Y > c.eRow(j)+c.Delta {
				return fmt.Errorf("adversary: step %d: E_%d packet %d north of its row at %v", t, j, p.ID(), lc)
			}
			// Lemma 8.
			if c.Delta == 0 && t <= j*dn && lc.X >= c.nCol(j) && lc.Y < c.eRow(j) {
				return fmt.Errorf("adversary: step %d: Lemma 8 violated by E_%d packet %d at %v", t, j, p.ID(), lc)
			}
		}
		// Lemmas 5/6: the packet must be inside the (i0-2)-box, where
		// i0 is the smallest i > 1 with t <= (i-1)·dn.
		if j >= 2 {
			i0 := (t+dn-1)/dn + 1
			if i0 <= j && i0 >= 2 {
				if !c.inBox(lc, i0-2) {
					return fmt.Errorf("adversary: step %d: Lemma 5/6 violated: %v_%d packet %d outside %d-box at %v",
						t, kind, j, p.ID(), i0-2, lc)
				}
			}
		}
	}

	// Lemmas 1/2: departure rates from the i-boxes.
	nc, ec := v.countInBoxes()
	for i := 1; i <= l; i++ {
		limit := 0 // allowed departures this step
		switch {
		case t <= (i-1)*dn:
			limit = 0 // Lemma 1
		case t <= i*dn:
			// Lemma 2 (Delta extension: one escape per step through
			// each of the Delta+1 exit columns/rows).
			limit = 1 + v.c.Delta
		default:
			limit = v.prevN[i] // unconstrained
		}
		if v.prevN[i]-nc[i] > limit {
			return fmt.Errorf("adversary: step %d: %d N_%d packets left the %d-box (Lemma 1/2 allows %d)",
				t, v.prevN[i]-nc[i], i, i, limit)
		}
		if t > i*dn {
			limit = v.prevE[i]
		}
		if v.prevE[i]-ec[i] > limit {
			return fmt.Errorf("adversary: step %d: %d E_%d packets left the %d-box (Lemma 1/2 allows %d)",
				t, v.prevE[i]-ec[i], i, i, limit)
		}
	}
	v.prevN, v.prevE = nc, ec
	return nil
}
