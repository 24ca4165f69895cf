package policies

import (
	"testing"

	"meshroute/internal/grid"
)

// ZigZag state encoding helpers.
func TestZigZagStateEncoding(t *testing.T) {
	s := zzSetPref(0, grid.West)
	if zzPref(s) != grid.West {
		t.Fatalf("pref = %v", zzPref(s))
	}
	s = zzSetPref(s, grid.North)
	if zzPref(s) != grid.North {
		t.Fatalf("pref = %v", zzPref(s))
	}
	// Upper state bits are preserved.
	s = zzSetPref(0xFF00, grid.East)
	if s&0xFF00 != 0xFF00 || zzPref(s) != grid.East {
		t.Fatalf("state clobbered: %x", s)
	}
}

func TestStrayStateEncoding(t *testing.T) {
	s := straySet(0, 3, grid.West)
	if strayCount(s) != 3 || strayOrient(s) != grid.West {
		t.Fatalf("cnt=%d orient=%v", strayCount(s), strayOrient(s))
	}
	s = straySet(s, 0, grid.East)
	if strayCount(s) != 0 || strayOrient(s) != grid.East {
		t.Fatal("update failed")
	}
	if strayOrient(0) != grid.NoDir {
		t.Fatal("zero state must have no orientation")
	}
}
