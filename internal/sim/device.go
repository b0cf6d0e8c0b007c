package sim

import (
	"fmt"
	"sort"
	"sync"
)

// MemClass tags an allocation as application data or runtime-system
// overhead, feeding the User/System split of the paper's Figure 9.
type MemClass int

const (
	// MemUser is memory holding (parts of) the application's arrays.
	MemUser MemClass = iota
	// MemSystem is memory the runtime allocates for its own machinery:
	// dirty-bit arrays, second-level chunk bits, remote-write buffers.
	MemSystem
)

func (c MemClass) String() string {
	if c == MemUser {
		return "User"
	}
	return "System"
}

// Buffer is one device-memory allocation. Data holds the actual storage
// as a typed Go slice ([]float32, []int32, ...); the simulator only
// tracks its identity and size.
type Buffer struct {
	// Name labels the allocation for diagnostics and memory reports.
	Name string
	// Class records whether this is user data or runtime overhead.
	Class MemClass
	// Bytes is the allocation size charged against device capacity.
	Bytes int64
	// Data is the typed backing slice.
	Data any

	dev   *Device
	freed bool
}

// Device returns the device owning the buffer.
func (b *Buffer) Device() *Device { return b.dev }

// Device is one processor of the machine with its own memory pool.
type Device struct {
	// Spec is the device's performance envelope.
	Spec DeviceSpec
	// ID is the device index within its machine (GPUs: 0..NumGPUs-1;
	// the CPU device has ID -1).
	ID int

	mu   sync.Mutex
	used int64
	// usedBy splits used by MemClass, kept current by AllocBytes and
	// Free so the runtime's per-launch memory sampling reads two numbers
	// instead of walking the buffers.
	usedBy  [2]int64
	buffers map[*Buffer]struct{}

	// faults points at the machine's fault-injection state, nil when
	// no plan is armed.
	faults *faultState
}

func newDevice(spec DeviceSpec, id int) *Device {
	return &Device{Spec: spec, ID: id, buffers: make(map[*Buffer]struct{})}
}

// String identifies the device, e.g. "GPU1 (Nvidia Tesla C2075)".
func (d *Device) String() string {
	if d.Spec.Kind == KindCPU {
		return fmt.Sprintf("CPU (%s)", d.Spec.Name)
	}
	return fmt.Sprintf("GPU%d (%s)", d.ID, d.Spec.Name)
}

// AllocBytes reserves raw capacity and registers the provided backing
// slice. Callers normally use the typed Alloc* helpers instead.
func (d *Device) AllocBytes(name string, class MemClass, bytes int64, data any) (*Buffer, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("sim: %s: negative allocation %d for %q", d, bytes, name)
	}
	if d.faults != nil {
		if node, lost := d.faults.nodeLost(d.ID); lost {
			return nil, &NodeLostError{Node: node, GPU: d.ID, Device: d.String()}
		}
		if d.faults.allocFails(d.ID) {
			return nil, &OutOfMemoryError{Device: d.String(), DeviceID: d.ID, Requested: bytes,
				Used: d.UsedBytes(), Capacity: d.Spec.MemBytes, Name: name, Injected: true}
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Spec.MemBytes > 0 && d.used+bytes > d.Spec.MemBytes {
		return nil, &OutOfMemoryError{Device: d.String(), DeviceID: d.ID, Requested: bytes, Used: d.used, Capacity: d.Spec.MemBytes, Name: name}
	}
	b := &Buffer{Name: name, Class: class, Bytes: bytes, Data: data, dev: d}
	d.used += bytes
	d.usedBy[class] += bytes
	d.buffers[b] = struct{}{}
	return b, nil
}

// Free releases a buffer. Freeing twice is an error, mirroring cudaFree.
func (d *Device) Free(b *Buffer) error {
	if b == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if b.dev != d {
		return fmt.Errorf("sim: buffer %q belongs to %s, not %s", b.Name, b.dev, d)
	}
	if b.freed {
		return fmt.Errorf("sim: double free of buffer %q on %s", b.Name, d)
	}
	b.freed = true
	d.used -= b.Bytes
	d.usedBy[b.Class] -= b.Bytes
	delete(d.buffers, b)
	return nil
}

// UsedBytes returns the currently allocated byte total.
func (d *Device) UsedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// UsedByClass returns the allocated bytes attributed to the class.
func (d *Device) UsedByClass(class MemClass) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.usedBy[class]
}

// Allocations returns a stable snapshot of live allocations, largest
// first, for memory reports and leak checks in tests.
func (d *Device) Allocations() []*Buffer {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Buffer, 0, len(d.buffers))
	for b := range d.buffers {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// OutOfMemoryError reports an allocation that exceeded device capacity
// (or was failed deliberately by an armed fault plan).
type OutOfMemoryError struct {
	Device    string
	DeviceID  int
	Name      string
	Requested int64
	Used      int64
	Capacity  int64
	// Injected marks a fault-plan failure rather than a genuine
	// capacity exhaustion.
	Injected bool
}

func (e *OutOfMemoryError) Error() string {
	cause := "out of memory"
	if e.Injected {
		cause = "out of memory (injected fault)"
	}
	return fmt.Sprintf("sim: %s %s: alloc %q needs %d bytes, %d of %d in use",
		e.Device, cause, e.Name, e.Requested, e.Used, e.Capacity)
}

// allocSlice reserves n elements of size bytes each, with AllocBytes'
// checks and fault-oracle draws, and only then makes the backing slice:
// a request the device refuses costs no host memory.
func allocSlice[T any](d *Device, name string, class MemClass, n int, size int64) (*Buffer, []T, error) {
	b, err := d.AllocBytes(name, class, int64(n)*size, nil)
	if err != nil {
		return nil, nil, err
	}
	made := false
	defer func() {
		if !made { // make panicked (a length the host cannot address)
			_ = d.Free(b) // just reserved here, so Free cannot fail
		}
	}()
	data := make([]T, n)
	b.Data = data
	made = true
	return b, data, nil
}

// AllocFloat32 allocates an n-element float32 buffer.
func (d *Device) AllocFloat32(name string, class MemClass, n int) (*Buffer, []float32, error) {
	return allocSlice[float32](d, name, class, n, 4)
}

// AllocFloat64 allocates an n-element float64 buffer.
func (d *Device) AllocFloat64(name string, class MemClass, n int) (*Buffer, []float64, error) {
	return allocSlice[float64](d, name, class, n, 8)
}

// AllocInt32 allocates an n-element int32 buffer.
func (d *Device) AllocInt32(name string, class MemClass, n int) (*Buffer, []int32, error) {
	return allocSlice[int32](d, name, class, n, 4)
}

// AllocInt64 allocates an n-element int64 buffer.
func (d *Device) AllocInt64(name string, class MemClass, n int) (*Buffer, []int64, error) {
	return allocSlice[int64](d, name, class, n, 8)
}

// AllocBytesSlice allocates an n-element byte buffer (dirty-bit arrays).
func (d *Device) AllocBytesSlice(name string, class MemClass, n int) (*Buffer, []byte, error) {
	return allocSlice[byte](d, name, class, n, 1)
}
