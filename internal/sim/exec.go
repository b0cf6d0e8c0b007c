package sim

import (
	"fmt"
	"sync"
)

// ParallelFor executes fn over [0,n) split into contiguous ranges across
// the device's worker pool, mirroring how thread blocks cover the
// iteration space of one kernel on one GPU. Each worker returns the
// Counters for its range; the sum is returned. A panic in any worker is
// recovered and surfaced as an error so a bad kernel cannot take down
// the host process.
func (d *Device) ParallelFor(n int, fn func(start, end int) Counters) (Counters, error) {
	return d.ForWorkers(n, nil, false, func(_, start, end int) (Counters, error) {
		return fn(start, end), nil
	})
}

// WorkerSlot is one worker's result cell for ForWorkers.
// Callers may keep a slice of them across launches so the steady state
// allocates nothing.
type WorkerSlot struct {
	C   Counters
	Err error
}

// ForWorkers is ParallelFor with stable worker identities and batched
// accounting: fn receives the worker index w (the chunk index,
// deterministic across runs) alongside its range, returns its range's
// Counters once instead of incrementing shared state per element, and
// may return an error, which is reported in worker order. slots, when
// non-nil and large enough, is reused as the per-worker result storage;
// pass nil to let the call allocate. Panics in fn are still recovered
// into errors. serial runs the same chunks, with the same worker
// identities, in worker order on the calling goroutine — for kernels
// whose lanes race on device memory in a way that would make their work
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
	nw := (n + chunk - 1) / chunk // spawned workers; can be < workers
	if len(slots) < nw {
		slots = make([]WorkerSlot, nw)
	}
	if serial || raceDetectorEnabled {
		// Under the race detector every kernel runs this way: kernels
		// may carry benign app-level races (same-value relaxations), and
		// the detector should watch only the runtime's real concurrency.
		for w := 0; w < nw; w++ {
			start := w * chunk
			end := start + chunk
			if end > n {
				end = n
			}
			slots[w].C, slots[w].Err = runRange(fn, w, start, end)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			start := w * chunk
			end := start + chunk
			if end > n {
				end = n
			}
			wg.Add(1)
			go func(w, start, end int) {
				defer wg.Done()
				slots[w].C, slots[w].Err = runRange(fn, w, start, end)
			}(w, start, end)
		}
		wg.Wait()
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

// OnEachGPU runs fn concurrently on every GPU of the machine (one
// goroutine per GPU, like concurrent kernel launches on separate CUDA
// contexts) and returns the first error encountered.
func (m *Machine) OnEachGPU(fn func(g int, dev *Device) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for g, dev := range m.gpus {
		wg.Add(1)
		go func(g int, dev *Device) {
			defer wg.Done()
			if err := fn(g, dev); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(g, dev)
	}
	wg.Wait()
	return firstErr
}
