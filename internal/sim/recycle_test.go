package sim

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// shelved counts the free slices of one shape.
func shelved(key shape) int {
	recycler.mu.Lock()
	defer recycler.mu.Unlock()
	return len(recycler.shelves[key])
}

// recycledBytes reports how many bytes the free list holds.
func recycledBytes() int64 {
	recycler.mu.Lock()
	defer recycler.mu.Unlock()
	return recycler.bytes
}

// Each test below allocates shapes no other test does, so what other
// tests leave on the process-wide list cannot satisfy its requests.

func TestFreeRecyclesByShape(t *testing.T) {
	const n = 1237
	m1, _ := NewMachine(Desktop())
	m2, _ := NewMachine(Desktop())
	b, data, err := Alloc[float32](m1.GPU(0), "x", MemUser, n, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = float32(i + 1)
	}
	if err := m1.GPU(0).Free(b); err != nil {
		t.Fatal(err)
	}
	if b.Data != nil {
		t.Error("Free left the buffer's slice on it")
	}
	if got := shelved(shape{reflect.TypeFor[[]float32](), n}); got != 1 {
		t.Fatalf("%d slices of the freed shape on the list, want 1", got)
	}
	// Another element type or length does not take it.
	if _, other, _ := Alloc[int32](m2.GPU(1), "i", MemUser, n, false); addr(other) == addr(data) {
		t.Error("an int32 request took a float32 slice")
	}
	if _, other, _ := Alloc[float32](m2.GPU(1), "y", MemUser, n+1, false); addr(other) == addr(data) {
		t.Error("a longer request took a shorter slice")
	}
	// Another machine's request of the shape does, zeroed.
	b2, again, err := Alloc[float32](m2.GPU(1), "z", MemUser, n, false)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &data[0] {
		t.Error("a request of the freed shape made a new slice")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("recycled element %d = %v, want 0", i, v)
		}
	}
	if b2.Data == nil || m2.GPU(1).UsedBytes() != 4*n+4*n+4*(n+1) {
		t.Errorf("the recycled buffer is not accounted like a new one: %d bytes in use", m2.GPU(1).UsedBytes())
	}
}

// TestFilledAllocSkipsTheClear: a caller that says it fills the storage
// takes a recycled slice as the last Free left it (poisoned in a race
// build); every other caller still reads zeros.
func TestFilledAllocSkipsTheClear(t *testing.T) {
	const n = 1249
	m, _ := NewMachine(Desktop())
	dev := m.GPU(0)
	b, data, err := Alloc[float64](dev, "x", MemUser, n, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = float64(i + 1)
	}
	if err := dev.Free(b); err != nil {
		t.Fatal(err)
	}
	want := math.Float64bits(n)
	if RaceDetector {
		want = 0xa5a5a5a5a5a5a5a5
	}
	b, filled, err := Alloc[float64](dev, "y", MemUser, n, true)
	if err != nil {
		t.Fatal(err)
	}
	if addr(filled) != addr(data) {
		t.Fatal("a filled request of the freed shape made a new slice")
	}
	if got := math.Float64bits(filled[n-1]); got != want {
		t.Errorf("filled storage's last element reads %#x, want %#x: it was cleared", got, want)
	}
	if err := dev.Free(b); err != nil {
		t.Fatal(err)
	}
	if _, zeroed, _ := Alloc[float64](dev, "z", MemUser, n, false); addr(zeroed) != addr(data) || zeroed[n-1] != 0 {
		t.Errorf("a zeroed request took the slice uncleared (element %d reads %v)", n-1, zeroed[n-1])
	}
}

// addr is the address of a slice's first element.
func addr(s any) uintptr { return uintptr(reflect.ValueOf(s).UnsafePointer()) }

// TestRecyclerConcurrentUse: requests on many machines at once, as accd
// runs them, never get storage another live buffer holds.
func TestRecyclerConcurrentUse(t *testing.T) {
	const n, rounds, clients = 97, 200, 8
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, _ := NewMachine(Desktop())
			for range rounds {
				b, data, err := Alloc[int32](m.GPU(c%2), "c", MemUser, n, false)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range data {
					if data[i] != 0 {
						t.Errorf("client %d took storage holding %d", c, data[i])
						return
					}
					data[i] = int32(c + 1)
				}
				runtime.Gosched()
				for i := range data {
					if data[i] != int32(c+1) {
						t.Errorf("client %d's live buffer was overwritten with %d", c, data[i])
						return
					}
				}
				if err := m.GPU(c % 2).Free(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFullListIsEmptiedForTheFreedSlice(t *testing.T) {
	// The list is full of a shape nothing allocates any more: one stale
	// entry charged at all but 100 bytes of the budget (only the charge
	// is real, so that the test holds no budget-sized storage).
	stale := shape{reflect.TypeFor[[]byte](), recycleBudget - 100}
	recycler.mu.Lock()
	if recycler.shelves == nil {
		recycler.shelves = make(map[shape][]freedSlice)
	}
	recycler.shelves[stale] = append(recycler.shelves[stale], freedSlice{name: "stale"})
	recycler.bytes += int64(stale.n)
	recycler.mu.Unlock()

	const n = 2003
	freed := shape{reflect.TypeFor[[]float64](), n}
	m, _ := NewMachine(Desktop())
	b, _, err := Alloc[float64](m.GPU(0), "new", MemUser, n, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.GPU(0).Free(b); err != nil {
		t.Fatal(err)
	}
	if shelved(stale) != 0 || shelved(freed) != 1 || recycledBytes() != 8*n {
		t.Errorf("after a Free into a full list: %d stale entries, %d of the freed shape, %d bytes; want 0, 1, %d",
			shelved(stale), shelved(freed), recycledBytes(), 8*n)
	}
}

func TestWriteAfterFreePanicsInRaceBuild(t *testing.T) {
	if !RaceDetector {
		t.Skip("the poison guard is on in race builds only")
	}
	const n = 777
	m, _ := NewMachine(Desktop())
	b, data, err := Alloc[int32](m.GPU(0), "stale", MemUser, n, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.GPU(0).Free(b); err != nil {
		t.Fatal(err)
	}
	data[3] = 1 // the bug the guard is for
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `buffer "stale" was written after Free`) {
			t.Errorf("reuse after a write after Free: recovered %q, want a panic naming the buffer", msg)
		}
		if m.GPU(1).UsedBytes() != 0 {
			t.Errorf("the panicking request left %d bytes reserved", m.GPU(1).UsedBytes())
		}
	}()
	_, _, _ = Alloc[int32](m.GPU(1), "next", MemUser, n, false)
}
