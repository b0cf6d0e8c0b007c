package sim

import (
	"fmt"
	"sync/atomic"
)

// Machine is an instantiated evaluation platform: one CPU device, N GPU
// devices and the bus connecting them.
type Machine struct {
	// Spec is the validated configuration the machine was built from.
	Spec MachineSpec

	cpu  *Device
	gpus []*Device

	// faults is the armed fault-injection state (nil when inactive).
	faults *faultState

	// memGen counts the device allocations and frees that succeeded on
	// any of the machine's devices (MemGen).
	memGen atomic.Uint64
}

// NewMachine validates the spec and instantiates its devices.
func NewMachine(spec MachineSpec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Spec: spec}
	m.cpu = newDevice(spec.CPU, -1, &m.memGen)
	for i := 0; i < spec.NumGPUs; i++ {
		m.gpus = append(m.gpus, newDevice(spec.GPU, i, &m.memGen))
	}
	return m, nil
}

// MemGen changes whenever a device allocation or free succeeds on the
// machine, and only then: two equal readings bracket a stretch in which
// every device's used bytes stood still. It never reads zero after an
// allocation.
func (m *Machine) MemGen() uint64 { return m.memGen.Load() }

// CPU returns the host processor device.
func (m *Machine) CPU() *Device { return m.cpu }

// GPUs returns the GPU devices in index order. The slice must not be
// mutated by callers.
func (m *Machine) GPUs() []*Device { return m.gpus }

// GPU returns the i-th GPU device.
func (m *Machine) GPU(i int) *Device { return m.gpus[i] }

// NumGPUs returns the GPU count.
func (m *Machine) NumGPUs() int { return len(m.gpus) }

// String summarizes the platform in the style of the paper's Table I.
func (m *Machine) String() string {
	return fmt.Sprintf("%s: %s + %d x %s", m.Spec.Name, m.Spec.CPU.Name, len(m.gpus), m.Spec.GPU.Name)
}
