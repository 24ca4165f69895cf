// Package adversary implements the lower-bound constructions of Chinn,
// Leighton and Tompa, Sections 3–5:
//
//   - the general construction (Section 3) that forces any deterministic,
//     destination-exchangeable, minimal adaptive routing algorithm to spend
//     Ω(n²/k²) steps on its constructed permutation (Theorem 14);
//   - the dimension-order construction (Section 5) forcing Ω(n²/k);
//   - the farthest-first dimension-order construction (Section 5);
//   - the h-h extension and the torus embedding.
//
// They are one engine, Construction, with three geometries (General,
// DimOrder, FarthestFirst); δ-stray, h-h and the torus embedding are its
// parameters. A construction runs the target algorithm under the
// simulator's exchange hook, applying the geometry's exchange rules (EX1–EX4
// for the general one) to swap destination addresses of packets whose
// profitable-outlink views are identical, and returns the constructed
// permutation — the final source→destination assignment. Replaying that
// permutation without exchanges must reproduce the exact same network
// configuration (Lemma 12), which the package verifies, and must leave
// packets undelivered at step ⌊l⌋·d·n (Theorem 13).
package adversary

import (
	"fmt"

	"meshroute/internal/bounds"
)

// Params holds the integer constants of a construction: Section 4.3's for
// the general one (NewParams, NewDeltaParams, NewHHParams), Section 5's for
// the dimension-order and farthest-first ones (NewDOParams, NewFFParams).
type Params struct {
	// N is the mesh side length.
	N int
	// K is the queue capacity k >= 1.
	K int
	// CN is c·n: the largest integer with c <= 1/(2(k+2)).
	CN int
	// DN is d·n: the largest integer with d <= 2/5.
	DN int
	// P is p = ⌊(k+1)(cn + c²n) + dn⌋, the number of N_i-packets (and of
	// E_i-packets) per index i.
	P int
	// L is ⌊l⌋ = ⌊c²n²/(2p)⌋, the number of packet classes.
	L int
}

// Steps returns ⌊l⌋·d·n, the number of steps the construction runs and the
// lower bound of Theorem 13 on the delivery time of the constructed
// permutation (bounds.Theorem13).
func (pr Params) Steps() int {
	lo, _, _ := bounds.Theorem13.Bound(bounds.Instance{L: pr.L, DN: pr.DN})
	return lo
}

// NewParams computes the constants of Section 4.3 for an n×n mesh with
// queues of size k. It returns an error when the mesh is too small for the
// construction's placement constraints.
func NewParams(n, k int) (Params, error) {
	if k < 1 {
		return Params{}, fmt.Errorf("adversary: k = %d, need k >= 1", k)
	}
	cn := n / (2 * (k + 2)) // largest cn with c <= 1/(2(k+2))
	dn := 2 * n / 5         // largest dn with d <= 2/5
	if cn < 2 {
		return Params{}, fmt.Errorf("adversary: n = %d too small for k = %d (cn = %d)", n, k, cn)
	}
	// p = ⌊(k+1)(cn + cn²/n) + dn⌋ computed exactly in integers:
	// ⌊((k+1)·cn·(n+cn) + dn·n) / n⌋.
	p := ((k+1)*cn*(n+cn) + dn*n) / n
	// l = c²n²/(2p) = (cn)²/(2p).
	l := (cn * cn) / (2 * p)
	pr := Params{N: n, K: k, CN: cn, DN: dn, P: p, L: l}
	if err := pr.validate(); err != nil {
		return Params{}, err
	}
	return pr, nil
}

// validate checks the three constraints of Section 4.3.
func (pr Params) validate() error {
	if pr.L < 1 {
		return fmt.Errorf("adversary: ⌊l⌋ = %d < 1; increase n (n=%d, k=%d)", pr.L, pr.N, pr.K)
	}
	// Constraint 1: p <= (1-c)n - l, i.e. p + l <= n - cn. This
	// guarantees enough distinct destination rows (columns) for all
	// N_i-packets (E_i-packets) outside the i-box.
	if pr.P+pr.L > pr.N-pr.CN {
		return fmt.Errorf("adversary: constraint 1 violated: p+l = %d > n-cn = %d (n=%d, k=%d)",
			pr.P+pr.L, pr.N-pr.CN, pr.N, pr.K)
	}
	// Constraint 3: l <= c²n = cn²/n (needed by Lemmas 3 and 4).
	if pr.L*pr.N > pr.CN*pr.CN {
		return fmt.Errorf("adversary: constraint 3 violated: l = %d > c²n = %d/%d", pr.L, pr.CN*pr.CN, pr.N)
	}
	// Placement feasibility: 2·p·L packets in the cn×cn 1-box.
	if 2*pr.P*pr.L > pr.CN*pr.CN {
		return fmt.Errorf("adversary: 2pL = %d exceeds 1-box size %d", 2*pr.P*pr.L, pr.CN*pr.CN)
	}
	return nil
}

// MinN returns the smallest recommended mesh side for queue size k — the
// paper's n >= 24(k+2)² from the proof of Theorem 14. NewParams may accept
// somewhat smaller n (it checks the constraints directly); MinN guarantees
// the Ω(n²/k²) constant calculation of Theorem 14 applies.
func MinN(k int) int { return 24 * (k + 2) * (k + 2) }

// NewDeltaParams computes the constants of the Section 5 "Nonminimal
// extensions": for destination-exchangeable algorithms whose packets never
// move more than delta nodes beyond their source-destination rectangle,
// p is inflated to (δ+1)·((k+1)(cn+c²n)+dn) — there must be enough
// N_i-packets to fill the N_i-column *and* the δ columns east of it — and
// the bound becomes Ω(n²/((δ+1)³k²)).
func NewDeltaParams(n, k, delta int) (Params, error) {
	if delta < 0 {
		return Params{}, fmt.Errorf("adversary: delta = %d, need delta >= 0", delta)
	}
	if delta == 0 {
		return NewParams(n, k)
	}
	if k < 1 {
		return Params{}, fmt.Errorf("adversary: k = %d, need k >= 1", k)
	}
	// Both c and d shrink by the (δ+1) factor so constraint 1 keeps
	// holding with the inflated p — which, with l ~ c²n²/p, is exactly
	// where the paper's (δ+1)³ in Ω(n²/((δ+1)³k²)) comes from.
	cn := n / (3 * (k + 2) * (delta + 1))
	dn := 2 * n / (5 * (delta + 1))
	if cn < 2 {
		return Params{}, fmt.Errorf("adversary: n = %d too small for k=%d delta=%d (cn = %d)", n, k, delta, cn)
	}
	p := (delta + 1) * (((k+1)*cn*(n+cn) + dn*n) / n)
	l := (cn * cn) / (2 * p)
	pr := Params{N: n, K: k, CN: cn, DN: dn, P: p, L: l}
	if pr.L < 1 {
		return Params{}, fmt.Errorf("adversary: delta ⌊l⌋ = 0 for n=%d k=%d delta=%d", n, k, delta)
	}
	if pr.P+pr.L > pr.N-pr.CN {
		return Params{}, fmt.Errorf("adversary: delta constraint 1 violated: p+l = %d > n-cn = %d", pr.P+pr.L, pr.N-pr.CN)
	}
	if 2*pr.P*pr.L > pr.CN*pr.CN {
		return Params{}, fmt.Errorf("adversary: delta 2pL = %d exceeds 1-box size %d", 2*pr.P*pr.L, pr.CN*pr.CN)
	}
	return pr, nil
}

// NewHHParams computes the constants of the Section 5 h-h extension, which
// places h packets on each node of the 1-box and yields an
// Ω(h³n²/(k+h)²) bound: c <= h/(3(k+1+h)), d <= 5h/9,
// p = ⌊(k+1)(cn+c²n)+dn⌋, l = h·c²n²/(2p).
func NewHHParams(n, k, h int) (Params, error) {
	if k < 1 || h < 1 {
		return Params{}, fmt.Errorf("adversary: need k >= 1 and h >= 1 (got k=%d h=%d)", k, h)
	}
	if h == 1 {
		return NewParams(n, k)
	}
	cn := h * n / (3 * (k + 1 + h))
	dn := 5 * h * n / 9
	if cn < 2 {
		return Params{}, fmt.Errorf("adversary: n = %d too small for k=%d h=%d (cn = %d)", n, k, h, cn)
	}
	p := ((k+1)*cn*(n+cn) + dn*n) / n
	l := h * cn * cn / (2 * p)
	pr := Params{N: n, K: k, CN: cn, DN: dn, P: p, L: l}
	if pr.L < 1 {
		return Params{}, fmt.Errorf("adversary: h-h ⌊l⌋ = 0 for n=%d k=%d h=%d", n, k, h)
	}
	// Constraint 1 (h-h form): p <= h((1-c)n - l), i.e. destination rows
	// suffice when each receives up to h packets.
	if pr.P > h*(n-cn-pr.L) {
		return Params{}, fmt.Errorf("adversary: h-h constraint 1 violated: p=%d > h((1-c)n-l)=%d", pr.P, h*(n-cn-pr.L))
	}
	// Placement: 2pL packets, h per node, in the cn×cn 1-box.
	if 2*pr.P*pr.L > h*cn*cn {
		return Params{}, fmt.Errorf("adversary: h-h 2pL = %d exceeds h·(cn)² = %d", 2*pr.P*pr.L, h*cn*cn)
	}
	return pr, nil
}

// NewDOParams computes the constants of the Section 5 dimension-order
// construction ("Dimension Order Routing", Figure 4 left):
// 2/(5(k+2)) <= c <= 1/(2(k+2)), 2/5 <= d <= 1/2, p = (k+1)·cn + dn and
// ⌊l⌋ = ⌊(1-c)·c·n²/p⌋.
func NewDOParams(n, k int) (Params, error) {
	if k < 1 {
		return Params{}, fmt.Errorf("adversary: k = %d, need k >= 1", k)
	}
	cn := n / (2 * (k + 2))
	dn := n / 2
	if cn < 2 {
		return Params{}, fmt.Errorf("adversary: n = %d too small for k = %d (cn = %d)", n, k, cn)
	}
	p := (k+1)*cn + dn
	par := Params{N: n, K: k, CN: cn, DN: dn, P: p, L: (n - cn) * cn / p}
	if par.L < 1 {
		return Params{}, fmt.Errorf("adversary: ⌊l⌋ = 0 for n=%d k=%d", n, k)
	}
	if par.L > cn {
		return Params{}, fmt.Errorf("adversary: l = %d exceeds the cn = %d destination columns", par.L, cn)
	}
	if par.P > n-cn {
		return Params{}, fmt.Errorf("adversary: p = %d exceeds the %d destination rows per column", par.P, n-cn)
	}
	return par, nil
}

// NewFFParams computes the constants of the Section 5 farthest-first
// construction (Figure 4 right): 1/(5(k+1)) <= c <= 1/(4(k+1)),
// 2/5 <= d <= 1/2, p = (2k+1)·cn + dn and ⌊l⌋ = ⌊c·n²/p⌋. The router it
// attacks is NOT destination-exchangeable, since it inspects full remaining
// distances.
func NewFFParams(n, k int) (Params, error) {
	if k < 1 {
		return Params{}, fmt.Errorf("adversary: k = %d, need k >= 1", k)
	}
	cn := n / (4 * (k + 1))
	dn := n / 2
	if cn < 2 {
		return Params{}, fmt.Errorf("adversary: n = %d too small for k = %d (cn = %d)", n, k, cn)
	}
	p := (2*k+1)*cn + dn
	par := Params{N: n, K: k, CN: cn, DN: dn, P: p, L: cn * n / p}
	if par.L < 1 {
		return Params{}, fmt.Errorf("adversary: ff ⌊l⌋ = 0 for n=%d k=%d", n, k)
	}
	if par.P > n-cn {
		return Params{}, fmt.Errorf("adversary: ff p = %d exceeds %d destination rows", par.P, n-cn)
	}
	if par.L >= n-cn {
		return Params{}, fmt.Errorf("adversary: ff l = %d leaves no room for columns", par.L)
	}
	return par, nil
}
