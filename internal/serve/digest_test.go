package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"accmulti/internal/ir"
)

// TestDigestIsPerElementHash pins digest to its definition: the SHA-256 of
// each element's little-endian bits, one element after the other. Float,
// double and int arrays, NaN payloads of both kinds and signs, both zeros,
// empty arrays and lengths on either side of a block.
func TestDigestIsPerElementHash(t *testing.T) {
	perElement := func(a *ir.HostArray) string {
		h := sha256.New()
		var buf [8]byte
		for _, v := range a.F32 {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h.Write(buf[:4])
		}
		for _, v := range a.F64 {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, v := range a.I32 {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	specials32 := []uint32{0x7fc00001, 0xffc00000, 0x7f800001, 0xffbfffff, 0, 1 << 31, 0x7f800000}
	specials64 := []uint64{0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0xfff7ffffffffffff, 0, 1 << 63}
	for _, n := range []int{0, 1, 7, digestBlock / 8, digestBlock/4 - 1, digestBlock / 4, digestBlock/4 + 1, 3*digestBlock/4 + 5} {
		f32, f64, i32 := make([]float32, n), make([]float64, n), make([]int32, n)
		for i := range n {
			f32[i] = math.Float32frombits(specials32[i%len(specials32)] ^ uint32(i)<<1)
			f64[i] = math.Float64frombits(specials64[i%len(specials64)] ^ uint64(i)<<1)
			i32[i] = int32(i*2654435761) - 7
		}
		for kind, a := range map[string]*ir.HostArray{"f32": {F32: f32}, "f64": {F64: f64}, "i32": {I32: i32}} {
			if got, want := digest(a), perElement(a); got != want {
				t.Fatalf("%s n=%d: digest %s, per element %s", kind, n, got, want)
			}
		}
	}
	// An empty float array hashes no bytes, like an empty int array.
	if got, want := digest(&ir.HostArray{F32: []float32{}}), hex.EncodeToString(sha256.New().Sum(nil)); got != want {
		t.Fatalf("empty: %s, want %s", got, want)
	}
}
