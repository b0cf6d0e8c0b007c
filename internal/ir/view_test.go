package ir

import (
	"math"
	"testing"

	"accmulti/internal/cc"
)

// TestStorageFunctions holds HostArray's element-type switches to
// per-element references over float, double and int storage: LoadAs and
// StoreAs round trips, CopyRange at offset 0 and in the interior, and
// Transpose on square and non-square shapes.
func TestStorageFunctions(t *testing.T) {
	const n = 64
	for _, typ := range []cc.ElemType{cc.TFloat, cc.TDouble, cc.TInt} {
		decl := &cc.VarDecl{Name: "a", Type: typ, IsArray: true}
		// fill stores seed*1000 + i at every element i.
		fill := func(a *HostArray, seed int64) *HostArray {
			for i := range a.Len() {
				StoreAs(a, i, float64(seed*1000+i))
			}
			return a
		}
		src := fill(NewHostArray(decl, n), 1)
		for i := range int64(n) {
			if f, k := LoadAs[float64](src, i), LoadAs[int64](src, i); f != float64(1000+i) || k != 1000+i {
				t.Fatalf("%v: element %d loads as %v and %d, want %d", typ, i, f, k, 1000+i)
			}
		}
		for _, r := range []struct{ di, si, n int64 }{
			{0, 0, n}, {0, 0, 1}, {0, 7, 30}, {5, 9, 20}, {17, 3, 40}, {n - 1, 0, 1}, {10, 10, 0},
		} {
			dst := fill(NewHostArray(decl, n), 2)
			CopyRange(dst, r.di, src, r.si, r.n)
			for i := range int64(n) {
				want := float64(2000 + i)
				if i >= r.di && i < r.di+r.n {
					want = float64(1000 + r.si + i - r.di)
				}
				if got := LoadAs[float64](dst, i); got != want {
					t.Fatalf("%v: CopyRange(dst, %d, src, %d, %d): element %d holds %v, want %v", typ, r.di, r.si, r.n, i, got, want)
				}
			}
		}
		for _, s := range []struct{ si, rows, width int64 }{
			{0, 8, 8}, {0, 4, 16}, {0, 16, 4}, {7, 5, 11}, {3, 1, 60}, {0, 60, 1},
		} {
			dst := fill(NewHostArray(decl, s.rows*s.width), 2)
			Transpose(dst, src, s.si, s.rows, s.width)
			for row := range s.rows {
				for col := range s.width {
					want := LoadAs[float64](src, s.si+row*s.width+col)
					if got := LoadAs[float64](dst, col*s.rows+row); got != want {
						t.Fatalf("%v: Transpose from %d, %dx%d: row %d col %d holds %v, want %v", typ, s.si, s.rows, s.width, row, col, got, want)
					}
				}
			}
		}
	}
}

// TestStorageSignallingNaN pins what each storage function does to a
// signalling NaN: the range copy moves its bits, float or double; a
// float element loaded as a lane and stored back is quieted, and so is a
// double lane stored into a float.
func TestStorageSignallingNaN(t *testing.T) {
	const snan32, snan64 = 0x7fa00001, 0xfff4000000000002
	const quiet32 = 0x00400000
	f := NewHostArray(&cc.VarDecl{Name: "f", Type: cc.TFloat, IsArray: true}, 4)
	d := NewHostArray(&cc.VarDecl{Name: "d", Type: cc.TDouble, IsArray: true}, 4)
	f.F32[1] = math.Float32frombits(snan32)
	d.F64[1] = math.Float64frombits(snan64)

	fc := NewHostArray(f.Decl, 4)
	CopyRange(fc, 0, f, 0, 4)
	if b := math.Float32bits(fc.F32[1]); b != snan32 {
		t.Errorf("CopyRange moved the float signalling NaN %#08x as %#08x", uint32(snan32), b)
	}
	dc := NewHostArray(d.Decl, 4)
	CopyRange(dc, 1, d, 1, 3)
	if b := math.Float64bits(dc.F64[1]); b != snan64 {
		t.Errorf("CopyRange moved the double signalling NaN %#016x as %#016x", uint64(snan64), b)
	}

	StoreAs(f, 2, LoadAs[float64](f, 1))
	StoreAs(f, 3, LoadAs[float64](d, 1))
	for i := int64(2); i < 4; i++ {
		if v := f.F32[i]; v == v || math.Float32bits(v)&quiet32 == 0 {
			t.Errorf("a float store of a signalling NaN wrote %#08x at %d, want a quiet NaN", math.Float32bits(v), i)
		}
	}
}
