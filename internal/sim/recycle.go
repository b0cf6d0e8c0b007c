package sim

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// recycleBudget is the most bytes of freed device storage the process
// keeps for reuse. It holds the whole footprint of the runs the
// benchmark measures (the replicated stencil's four 4 MiB replicas and
// their dirty bytes are the largest).
const recycleBudget = 64 << 20

// poison is the byte a race build fills freed storage with, so that a
// write after Free shows when the slice is next taken.
const poison = 0xa5

// shape keys the free list: the slice type ([]float32, []byte, ...) and
// its length. A slice serves only an allocation of exactly its shape.
type shape struct {
	typ reflect.Type
	n   int
}

// freedSlice is one slice on the free list, still boxed as it was in
// Buffer.Data, with the name of the buffer that freed it for the
// use-after-free panic.
type freedSlice struct {
	data any
	name string
}

// recycler is the process-wide free list of device storage. Every
// machine shares it: every run builds a new machine (core.Program.Run),
// and the storage its buffers freed serves whichever machine allocates
// that shape next. Capacity accounting stays
// per device; the list only saves the host the make and the collection
// of a slice it already had, and a caller that fills the storage whole
// the zeroing too.
var recycler struct {
	mu      sync.Mutex
	bytes   int64
	shelves map[shape][]freedSlice
}

// recycle puts a freed buffer's slice on the free list. When the list
// has no room for it, the list is emptied first: a long-lived process
// (accd, a test binary) fills it with shapes it no longer allocates, and
// would otherwise recycle nothing from then on. A slice larger than the
// whole budget goes to the garbage collector. In a race build the slice
// is poisoned first.
func recycle(b *Buffer) {
	data := b.Data
	n := reflect.ValueOf(data).Len()
	if n == 0 || b.Bytes > recycleBudget {
		return
	}
	recycler.mu.Lock()
	defer recycler.mu.Unlock()
	if recycler.bytes+b.Bytes > recycleBudget {
		clear(recycler.shelves)
		recycler.bytes = 0
	}
	if RaceDetector {
		raw := rawBytes(data)
		for i := range raw {
			raw[i] = poison
		}
	}
	if recycler.shelves == nil {
		recycler.shelves = make(map[shape][]freedSlice)
	}
	key := shape{reflect.TypeOf(data), n}
	recycler.shelves[key] = append(recycler.shelves[key], freedSlice{data, b.Name})
	recycler.bytes += b.Bytes
}

// reuse takes an n-element []T off the free list, zeroed when zero
// says so. ok is false when the list holds no slice of that shape.
func reuse[T any](n int, zero bool) (boxed any, data []T, ok bool) {
	key := shape{reflect.TypeFor[[]T](), n}
	recycler.mu.Lock()
	s := recycler.shelves[key]
	if len(s) == 0 {
		recycler.mu.Unlock()
		return nil, nil, false
	}
	f := s[len(s)-1]
	s[len(s)-1] = freedSlice{}
	if len(s) == 1 {
		delete(recycler.shelves, key)
	} else {
		recycler.shelves[key] = s[:len(s)-1]
	}
	recycler.bytes -= int64(n) * int64(unsafe.Sizeof(*new(T)))
	recycler.mu.Unlock()
	if RaceDetector {
		checkPoison(f)
	}
	data = f.data.([]T)
	if zero {
		clear(data)
	}
	return f.data, data, true
}

// checkPoison panics if anything wrote to a slice after its buffer was
// freed: the slice no longer holds the poison Free filled it with.
func checkPoison(f freedSlice) {
	for i, v := range rawBytes(f.data) {
		if v != poison {
			panic(fmt.Sprintf("sim: buffer %q was written after Free (byte %d is %#x)", f.name, i, v))
		}
	}
}

// rawBytes views a slice's storage as bytes.
func rawBytes(data any) []byte {
	v := reflect.ValueOf(data)
	return unsafe.Slice((*byte)(v.UnsafePointer()), v.Len()*int(v.Type().Elem().Size()))
}
