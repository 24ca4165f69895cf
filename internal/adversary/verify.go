package adversary

import (
	"fmt"

	"meshroute/internal/sim"
)

// verifier checks a construction's lemmas after every step: Lemmas 1–8 of
// Section 4.1 for the general geometry (permutation case, H = 1), their
// analogues of Lemmas 1, 2 and 5 for the dimension-order one, and the
// row-sortedness invariant for the farthest-first one.
type verifier struct {
	c   *Construction
	net *sim.Network
	// prevN[i], prevE[i]: packets of current kind N_i/E_i inside the
	// i-box after the previous step.
	prevN []int
	prevE []int
}

// newVerifier checks the initial placement and returns the verifier.
func newVerifier(c *Construction, net *sim.Network) (*verifier, error) {
	v := &verifier{c: c, net: net}
	v.prevN, v.prevE = v.countInBoxes()
	return v, v.check(0)
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
	dn := c.Par.DN
	lemma78 := c.geometry == General && c.Delta == 0

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
			if lemma78 && t <= j*dn && lc.Y >= c.eRow(j) && lc.X < c.nCol(j) {
				return fmt.Errorf("adversary: step %d: Lemma 7 violated by N_%d packet %d at %v", t, j, p.ID(), lc)
			}
		case KindE:
			if lc.Y > c.eRow(j)+c.Delta {
				return fmt.Errorf("adversary: step %d: E_%d packet %d north of its row at %v", t, j, p.ID(), lc)
			}
			// Lemma 8.
			if lemma78 && t <= j*dn && lc.X >= c.nCol(j) && lc.Y < c.eRow(j) {
				return fmt.Errorf("adversary: step %d: Lemma 8 violated by E_%d packet %d at %v", t, j, p.ID(), lc)
			}
		}
		// Lemmas 5/6: the packet must be inside the (i0-2)-box, where
		// i0 is the smallest i > 1 with t <= (i-1)·dn.
		if i0 := (t+dn-1)/dn + 1; c.geometry != FarthestFirst && i0 >= 2 && i0 <= j && !c.inBox(lc, i0-2) {
			return fmt.Errorf("adversary: step %d: Lemma 5/6 violated: %v_%d packet %d outside %d-box at %v",
				t, kind, j, p.ID(), i0-2, lc)
		}
	}
	if c.geometry == FarthestFirst {
		return v.rowsSorted(t)
	}

	// Lemmas 1/2: departure rates from the i-boxes.
	nc, ec := v.countInBoxes()
	for i := 1; i <= c.Par.L; i++ {
		limit := 0 // allowed departures this step
		switch {
		case t <= (i-1)*dn:
			limit = 0 // Lemma 1
		case t <= i*dn:
			// Lemma 2 (Delta extension: one escape per step through
			// each of the Delta+1 exit columns/rows).
			limit = 1 + c.Delta
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

// rowsSorted validates the farthest-first row invariant: within every band
// row, for j > i, no N_j-packet is further east than any N_i-packet.
func (v *verifier) rowsSorted(t int) error {
	c := v.c
	// The easternmost and westernmost position per (row, class).
	type key struct{ row, class int }
	eastmost := map[key]int{}
	westmost := map[key]int{}
	st := &v.net.P
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		kind, j := c.kindOf(st.Dst[p])
		if kind == KindNone || st.Delivered(p) {
			continue
		}
		lc := c.local(st.At[p])
		if lc.Y > c.eRow(j) || lc.X == c.nCol(j) {
			// Climbing (or waiting in) its own column: the packet has
			// finished its row phase, so the row invariant no longer
			// constrains it.
			continue
		}
		k := key{lc.Y, j}
		if e, ok := eastmost[k]; !ok || lc.X > e {
			eastmost[k] = lc.X
		}
		if w, ok := westmost[k]; !ok || lc.X < w {
			westmost[k] = lc.X
		}
	}
	for k, e := range eastmost {
		for i := 1; i < k.class; i++ {
			if w, ok := westmost[key{k.row, i}]; ok && e > w {
				return fmt.Errorf("adversary: step %d: row %d: N_%d at x=%d east of N_%d at x=%d",
					t, k.row, k.class, e, i, w)
			}
		}
	}
	return nil
}

// corollary9 checks Corollary 9 quantitatively for the general geometry:
// at least p - dn packets of each of N_l and E_l (p - (δ+1)dn in the
// nonminimal extension) remain in the l-box, hence undelivered.
func (v *verifier) corollary9() error {
	par := v.c.Par
	if v.c.geometry != General {
		return nil
	}
	nc, ec := v.countInBoxes()
	min := par.P - (v.c.Delta+1)*par.DN
	if nc[par.L] < min || ec[par.L] < min {
		return fmt.Errorf("adversary: Corollary 9 violated: %d N_%d and %d E_%d packets in the %d-box, want >= %d each",
			nc[par.L], par.L, ec[par.L], par.L, par.L, min)
	}
	return nil
}
