package clt

import "fmt"

// sortSmooth implements Step 3 of the Vertical Phase: in two sequential
// substeps (even destination strips, then odd), each column's active
// packets for strip i move from strip i-3 to strip i-2, sorted by
// decreasing horizontal distance and dealt into balanced layers:
//
//   - the t-th node from the southernmost of strip i-3 starts transmitting
//     at step t, always sending the held packet with the farthest east to
//     go;
//   - the t-th node from the northernmost of strip i-2 holds every t-th
//     packet it receives and forwards the rest north.
//
// It returns the phase duration (max over columns and strips, summed over
// the two parities).
func (c *classRun) sortSmooth(tile []act, d, q int) (int, error) {
	total := 0
	for parity := 0; parity < 2; parity++ {
		maxDur := 0
		for lo, hi := 0, 0; lo < len(tile); lo = hi {
			strips := uint32(0) // the column's destination strips
			for hi = lo; hi < len(tile) && tile[hi].x == tile[lo].x; hi++ {
				strips |= 1 << tile[hi].strip
			}
			// One stream per (column, destination strip).
			for i := 4 + parity; strips>>i != 0; i += 2 {
				if strips>>i&1 == 0 {
					continue
				}
				dur, err := c.ssStream(tile[lo:hi], i, d, q)
				if err != nil {
					return 0, err
				}
				maxDur = max(maxDur, dur)
			}
		}
		total += maxDur
	}
	return total, nil
}

// send is one Sort-and-Smooth transmission of a step.
type send struct {
	k      int32 // index into the column
	toHold int32 // destination hold node t+1, or 0
	toRecv int32 // destination receiver r, or 0
	fresh  bool  // first arrival into strip i-2 (from strip i-3)
}

// ssStream simulates the sorted stream of one (column, destination strip)
// pair — col's packets for strip i — until all of them rest in strip i-2.
func (c *classRun) ssStream(col []act, i, d, q int) (int, error) {
	// Strip i-3 holdings by node t (1 = southernmost ... d = northernmost);
	// strip i-2 receivers by node rr (1 = northernmost ... d = southernmost)
	// with their forward queues, read from head.
	hold, fq, head, recv := c.hold[:d+1], c.fq[:d+1], c.head[:d+1], c.recv[:d+1]
	for t := range hold {
		hold[t], fq[t], head[t], recv[t] = hold[t][:0], fq[t][:0], 0, 0
	}
	base := (i - 4) * d // southernmost local row of strip i-3
	pending, forwarding := 0, 0
	for k := range col {
		if int(col[k].strip) != i {
			continue
		}
		t := int(col[k].y) - base + 1
		if t < 1 || t > d {
			return 0, fmt.Errorf("clt: sort-and-smooth found packet %d outside strip %d-3", col[k].id, i)
		}
		hold[t] = append(hold[t], int32(k))
		pending++
	}
	step := 0
	limit := (d - 1) + q*d + d + 4
	for pending > 0 || forwarding > 0 {
		step++
		if step > limit {
			return 0, fmt.Errorf("clt: sort-and-smooth stream for strip %d exceeded %d steps", i, limit)
		}
		sends := c.sends[:0]
		// Strip i-3 node t transmits from step t on: farthest east to go.
		for t := d; t >= 1; t-- {
			if step < t || len(hold[t]) == 0 {
				continue
			}
			h := hold[t]
			bi := 0
			for j := 1; j < len(h); j++ {
				a, b := &col[h[j]], &col[h[bi]]
				if farther(a.dx-a.x, a.id, b.dx-b.x, b.id) {
					bi = j
				}
			}
			k := h[bi]
			hold[t] = append(h[:bi], h[bi+1:]...)
			if t < d {
				sends = append(sends, send{k: k, toHold: int32(t + 1)})
			} else {
				sends = append(sends, send{k: k, toRecv: int32(d), fresh: true})
			}
		}
		// Strip i-2 node rr forwards its queue head north.
		for rr := d; rr >= 2; rr-- {
			if int(head[rr]) == len(fq[rr]) {
				continue
			}
			sends = append(sends, send{k: fq[rr][head[rr]], toRecv: int32(rr - 1)})
			head[rr]++
			forwarding--
		}
		for _, s := range sends {
			c.move(&col[s.k], 0, 1, int32(step))
			if s.toHold > 0 {
				hold[s.toHold] = append(hold[s.toHold], s.k)
				continue
			}
			rr := s.toRecv
			recv[rr]++
			if s.fresh {
				pending--
			}
			if recv[rr]%rr != 0 {
				fq[rr] = append(fq[rr], s.k)
				forwarding++
			}
		}
		c.sends = sends[:0]
	}
	for rr := 1; rr <= d; rr++ {
		if int(head[rr]) < len(fq[rr]) {
			return 0, fmt.Errorf("clt: sort-and-smooth terminated with queued packets")
		}
	}
	return step, nil
}
