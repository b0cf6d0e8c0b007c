package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOut runs fn(0), …, fn(n-1) and returns when all have finished. It
// is the only place the simulator and the runtime start goroutines: the
// indices are shared out over min(n, GOMAXPROCS) goroutines, the caller
// being one of them, so on one processor nothing is spawned and the
// indices run in ascending order on the calling goroutine. An index
// names a unit of simulated work (a GPU, a worker's chunk), never the
// goroutine that happens to run it; fn must write only what its index
// owns. GOMAXPROCS is read per call. A panic out of fn on the calling
// goroutine propagates after the others have finished; callers that must
// survive a panicking fn recover inside it (see runRange).
func FanOut(n int, fn func(i int)) {
	procs := fanOutProcs(n)
	if procs <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	spawned := func() {
		defer wg.Done()
		work()
	}
	defer wg.Wait()
	wg.Add(procs - 1)
	for p := 1; p < procs; p++ {
		go spawned()
	}
	work()
}

// fanOutProcs is how many goroutines FanOut(n, …) runs on.
func fanOutProcs(n int) int { return min(n, runtime.GOMAXPROCS(0)) }

// WorkerSlot is one worker's result cell for ForWorkers.
// Callers may keep a slice of them across launches so the steady state
// allocates nothing.
type WorkerSlot struct {
	C   Counters
	Err error
}

// ForWorkers executes fn over [0,n) split into contiguous ranges across
// the device's worker pool, mirroring how thread blocks cover the
// iteration space of one kernel on one GPU. fn receives the worker
// index w — the chunk index, deterministic across runs and independent
// of which host goroutine runs the chunk — alongside its range, returns
// its range's Counters once instead of incrementing shared state per
// element, and may return an error, which is reported in worker order;
// the sum of the Counters is returned. slots, when non-nil and large
// enough, is reused as the per-worker result storage; pass nil to let
// the call allocate. A panic in fn is recovered and surfaced as an error
// so a bad kernel cannot take down the host process. serial runs the
// chunks in worker order on the calling goroutine — for kernels whose
// lanes race on device memory in a way that would make their work
// counters depend on the interleaving.
func (d *Device) ForWorkers(n int, slots []WorkerSlot, serial bool, fn func(w, start, end int) (Counters, error)) (Counters, error) {
	if n <= 0 {
		return Counters{}, nil
	}
	workers := d.Spec.Workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		return runRange(fn, 0, 0, n)
	}
	chunk := (n + workers - 1) / workers
	nw := (n + chunk - 1) / chunk // worker chunks; can be < workers
	if len(slots) < nw {
		slots = make([]WorkerSlot, nw)
	}
	if serial || raceDetectorEnabled || fanOutProcs(nw) <= 1 {
		// Under the race detector every kernel runs this way: kernels
		// may carry benign app-level races (same-value relaxations), and
		// the detector should watch only the runtime's real concurrency.
		// One processor runs it too, rather than build FanOut a closure
		// that would then loop in the same order.
		for w := 0; w < nw; w++ {
			slots[w].C, slots[w].Err = runRange(fn, w, w*chunk, min((w+1)*chunk, n))
		}
	} else {
		FanOut(nw, func(w int) {
			slots[w].C, slots[w].Err = runRange(fn, w, w*chunk, min((w+1)*chunk, n))
		})
	}
	var total Counters
	var firstErr error
	for w := 0; w < nw; w++ {
		total.Add(slots[w].C)
		if slots[w].Err != nil && firstErr == nil {
			firstErr = slots[w].Err
		}
	}
	return total, firstErr
}

func runRange(fn func(w, start, end int) (Counters, error), w, start, end int) (c Counters, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: kernel panicked on range [%d,%d): %v", start, end, r)
		}
	}()
	return fn(w, start, end)
}
