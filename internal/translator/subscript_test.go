package translator

import "testing"

func lit(coef, off int64) IndexForm { return IndexForm{Literal: true, Class: Class{coef, off}} }

func TestWindowContainsAndNeed(t *testing.T) {
	w := Window{S: 4, L: 1, R: 2} // [4i-1, 4i+5]
	for _, tc := range []struct {
		f    IndexForm
		want bool
	}{
		{lit(4, -1), true}, {lit(4, -2), false}, {lit(4, 5), true}, {lit(4, 6), false},
		{lit(2, 0), false}, {IndexForm{Class: Class{4, 0}}, false},
	} {
		if got := w.Contains(tc.f); got != tc.want {
			t.Errorf("%+v contains %d*i%+d = %v, want %v", w, tc.f.Coef, tc.f.Off, got, tc.want)
		}
	}
	forms := []IndexForm{lit(4, 0), lit(4, -3), lit(4, 3), lit(4, 9)}
	l, r := Window{S: 4}.Need(forms)
	if l != 3 || r != 6 {
		t.Errorf("need (%d, %d), want (3, 6)", l, r)
	}
	// The need is exactly what containment asks for: no narrower halo does.
	for _, f := range forms {
		if !(Window{4, l, r}).Contains(f) || (f.Off < 0 && (Window{4, l - 1, r}).Contains(f)) || (f.Off > 8 && (Window{4, l, r - 1}).Contains(f)) {
			t.Errorf("need (%d, %d) is not tight at offset %d", l, r, f.Off)
		}
	}
	if c, ok := CommonCoef(forms); !ok || c != 4 {
		t.Errorf("common coefficient %d %v", c, ok)
	}
	if _, ok := CommonCoef(append(forms, lit(2, 0))); ok {
		t.Error("two coefficients have none in common")
	}
	if _, ok := CommonCoef(nil); ok {
		t.Error("no access has no coefficient")
	}
}

func TestCollide(t *testing.T) {
	for _, tc := range []struct {
		a, b          Class
		meet, collide bool
	}{
		{Class{1, 0}, Class{1, 0}, true, false},  // a[i] and a[i]: each iteration its own
		{Class{1, 0}, Class{1, -1}, true, true},  // a[i] and a[i-1]
		{Class{2, 0}, Class{2, 1}, false, false}, // evens and odds
		{Class{2, 0}, Class{2, 4}, true, true},   // congruent offsets
		{Class{-2, 0}, Class{-2, 4}, true, true}, // whatever the sign
		{Class{0, 3}, Class{0, 3}, true, true},   // one fixed element, every iteration
		{Class{0, 3}, Class{0, 4}, false, false}, // two fixed elements
		{Class{0, 6}, Class{3, 0}, true, true},   // a fixed element of a strided sweep
		{Class{0, 7}, Class{3, 0}, false, false}, // and one it skips
		{Class{4, 1}, Class{6, 0}, false, false}, // gcd 2 does not divide 1
		{Class{4, 2}, Class{6, 0}, true, true},   // gcd 2 divides 2
	} {
		if got := Meet(tc.a, tc.b); got != tc.meet || Meet(tc.b, tc.a) != got {
			t.Errorf("Meet(%v, %v) = %v, want %v (either way round)", tc.a, tc.b, got, tc.meet)
		}
		if got := Collide(tc.a, tc.b); got != tc.collide || Collide(tc.b, tc.a) != got {
			t.Errorf("Collide(%v, %v) = %v, want %v (either way round)", tc.a, tc.b, got, tc.collide)
		}
	}
}
