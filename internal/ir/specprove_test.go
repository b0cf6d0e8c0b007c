package ir

import "testing"

// TestIvalDivisionCorners pins the prover's rule for truncated division
// by a positive interval: over dividends on either side of zero and
// divisors of one or several values, every quotient lies inside ivDiv's
// interval and both of its ends are attained.
func TestIvalDivisionCorners(t *testing.T) {
	for _, a := range []Ival{{-17, -3}, {-9, 12}, {0, 0}, {5, 40}, {1000, 1000}} {
		for _, b := range []Ival{{1, 1}, {3, 3}, {2, 7}, {3, 11}} {
			got := ivDiv(a, b)
			lo, hi := got.Hi, got.Lo
			for x := a.Lo; x <= a.Hi; x++ {
				for y := b.Lo; y <= b.Hi; y++ {
					q := x / y
					if q < got.Lo || q > got.Hi {
						t.Fatalf("%d / %d = %d outside ivDiv(%v, %v) = %v", x, y, q, a, b, got)
					}
					lo, hi = min(lo, q), max(hi, q)
				}
			}
			if lo != got.Lo || hi != got.Hi {
				t.Errorf("ivDiv(%v, %v) = %v; the quotients span [%d, %d]", a, b, got, lo, hi)
			}
		}
	}
	if got := ivDiv(Ival{1, 2}, Ival{-1, 3}); got.Bounded() {
		t.Errorf("a divisor interval reaching zero bounded the quotient: %v", got)
	}
}
