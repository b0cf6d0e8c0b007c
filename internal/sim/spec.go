// Package sim provides a deterministic simulator for a single compute
// node equipped with multiple GPUs, in the style of the machines used by
// Komoda et al. (ICPP 2013): CPUs and GPUs with physically separate
// memories connected by a PCIe-like bus.
//
// The simulator plays the role CUDA 4.0 and the Tesla C2075/M2050 boards
// play in the paper. Kernels are executed for real (on goroutine worker
// pools, so results are testable), while time is virtual: every byte
// moved and every arithmetic operation performed is counted from the
// actual data structures and then priced by a calibrated device model.
// This keeps the evaluation deterministic and hardware independent while
// preserving the quantities the paper measures (kernel time, CPU-GPU
// transfer time, GPU-GPU transfer time, device memory footprints).
package sim

import (
	"errors"
	"fmt"
)

// DeviceKind distinguishes the two processor models of the simulator.
type DeviceKind int

const (
	// KindCPU is a multi-core host processor. It accesses host memory
	// directly and never pays bus transfer costs.
	KindCPU DeviceKind = iota
	// KindGPU is an accelerator with its own physically separate memory.
	KindGPU
)

func (k DeviceKind) String() string {
	switch k {
	case KindCPU:
		return "CPU"
	case KindGPU:
		return "GPU"
	default:
		return fmt.Sprintf("DeviceKind(%d)", int(k))
	}
}

// DeviceSpec describes the performance envelope of one processor. The
// throughput numbers are *effective* (achievable on the evaluated
// kernels), not peak; they are the calibration constants of the model.
type DeviceSpec struct {
	// Name identifies the processor model, e.g. "Tesla C2075".
	Name string
	// Kind is CPU or GPU.
	Kind DeviceKind
	// GFLOPS is the effective arithmetic throughput in 1e9 ops/s.
	GFLOPS float64
	// MemGBs is the effective local memory bandwidth in 1e9 bytes/s.
	MemGBs float64
	// MemBytes is the device memory capacity. Allocations beyond this
	// fail, exactly like cudaMalloc on a real board.
	MemBytes int64
	// LaunchOverheadUS is the fixed cost of one kernel launch (GPU) or
	// one parallel-region fork/join (CPU), in microseconds.
	LaunchOverheadUS float64
	// Workers is the number of worker chunks this device's share of a
	// kernel is executed in functionally (on as many goroutines as the
	// host has processors; see FanOut).
	Workers int
}

// Validate reports an error if the spec is not usable.
func (s *DeviceSpec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("sim: device spec has empty name")
	case s.GFLOPS <= 0:
		return fmt.Errorf("sim: device %s: GFLOPS must be positive, got %g", s.Name, s.GFLOPS)
	case s.MemGBs <= 0:
		return fmt.Errorf("sim: device %s: MemGBs must be positive, got %g", s.Name, s.MemGBs)
	case s.Kind == KindGPU && s.MemBytes <= 0:
		return fmt.Errorf("sim: device %s: GPU needs positive MemBytes, got %d", s.Name, s.MemBytes)
	case s.LaunchOverheadUS < 0:
		return fmt.Errorf("sim: device %s: negative launch overhead", s.Name)
	case s.Workers < 1:
		return fmt.Errorf("sim: device %s: Workers must be >= 1, got %d", s.Name, s.Workers)
	}
	return nil
}

// BusSpec models the communication fabric between host memory and the
// GPUs (PCIe in the paper's machines).
type BusSpec struct {
	// HostLinkGBs is the bandwidth of one host<->device link in 1e9
	// bytes/s (PCIe gen2 x16 effective rates in the paper era).
	HostLinkGBs float64
	// HostConcurrency in [0,1] is the fraction of an extra link's
	// bandwidth gained when several devices DMA concurrently: the
	// aggregate host bandwidth with n active devices is
	// HostLinkGBs * (1 + (n-1)*HostConcurrency).
	HostConcurrency float64
	// PeerGBs is the direct GPU<->GPU bandwidth. Zero means no peer
	// path: peer traffic is staged through host memory and pays the
	// host link twice (the supercomputer-node behaviour in the paper).
	PeerGBs float64
	// LatencyUS is the fixed per-transfer latency in microseconds.
	LatencyUS float64
}

// Validate reports an error if the spec is not usable.
func (b *BusSpec) Validate() error {
	switch {
	case b.HostLinkGBs <= 0:
		return fmt.Errorf("sim: bus HostLinkGBs must be positive, got %g", b.HostLinkGBs)
	case b.HostConcurrency < 0 || b.HostConcurrency > 1:
		return fmt.Errorf("sim: bus HostConcurrency must be in [0,1], got %g", b.HostConcurrency)
	case b.PeerGBs < 0:
		return fmt.Errorf("sim: bus PeerGBs must be >= 0, got %g", b.PeerGBs)
	case b.LatencyUS < 0:
		return fmt.Errorf("sim: bus LatencyUS must be >= 0, got %g", b.LatencyUS)
	}
	return nil
}

// NetworkSpec models the inter-node fabric of a cluster (the paper's
// §VI future work). Inter-node GPU-GPU and host-GPU traffic is staged
// through the endpoints' host memories and the network.
type NetworkSpec struct {
	// GBs is the per-direction network bandwidth in 1e9 bytes/s.
	GBs float64
	// LatencyUS is the fixed per-message latency in microseconds.
	LatencyUS float64
}

// Validate reports an error if the spec is not usable.
func (n *NetworkSpec) Validate() error {
	if n.GBs <= 0 {
		return fmt.Errorf("sim: network GBs must be positive, got %g", n.GBs)
	}
	if n.LatencyUS < 0 {
		return fmt.Errorf("sim: network LatencyUS must be >= 0, got %g", n.LatencyUS)
	}
	return nil
}

// MachineSpec describes one evaluation platform (paper Table I), or —
// with Nodes > 1 — a small cluster of identical nodes (the paper's §VI
// future work). GPUs number 0..NumGPUs-1 globally and are assigned to
// nodes round-robin-free: GPU g lives on node g / (NumGPUs/Nodes). The
// host program (and host mirrors) live on node 0.
type MachineSpec struct {
	// Name identifies the platform, e.g. "Desktop Machine".
	Name string
	// CPU is the host processor used by the OpenMP baseline.
	CPU DeviceSpec
	// GPU is the accelerator model; the machine has NumGPUs identical
	// copies of it.
	GPU DeviceSpec
	// NumGPUs is the total GPU count across all nodes.
	NumGPUs int
	// Bus is the intra-node interconnect.
	Bus BusSpec
	// Nodes is the node count (0 and 1 both mean a single node).
	Nodes int
	// Network is the inter-node fabric; required when Nodes > 1.
	Network NetworkSpec
}

// NodeCount normalizes Nodes.
func (m *MachineSpec) NodeCount() int {
	if m.Nodes < 1 {
		return 1
	}
	return m.Nodes
}

// GPUsPerNode returns the per-node GPU count.
func (m *MachineSpec) GPUsPerNode() int { return m.NumGPUs / m.NodeCount() }

// NodeOf returns the node hosting GPU g (host endpoints, g < 0, are
// node 0, and so is every id on a single node).
func (m *MachineSpec) NodeOf(g int) int {
	if g < 0 || m.NodeCount() == 1 {
		return 0
	}
	return g / m.GPUsPerNode()
}

// CrossNode reports whether a transfer between the endpoints src and
// dst (device IDs; negative means the host, which lives on node 0)
// crosses a node boundary and therefore travels the network instead of
// an intra-node bus path.
func (m *MachineSpec) CrossNode(src, dst int) bool {
	return m.NodeCount() > 1 && m.NodeOf(src) != m.NodeOf(dst)
}

// Validate reports an error if the spec is not usable.
func (m *MachineSpec) Validate() error {
	if m.Name == "" {
		return errors.New("sim: machine spec has empty name")
	}
	if err := m.CPU.Validate(); err != nil {
		return fmt.Errorf("machine %s: CPU: %w", m.Name, err)
	}
	if m.CPU.Kind != KindCPU {
		return fmt.Errorf("machine %s: CPU spec has kind %v", m.Name, m.CPU.Kind)
	}
	if err := m.GPU.Validate(); err != nil {
		return fmt.Errorf("machine %s: GPU: %w", m.Name, err)
	}
	if m.GPU.Kind != KindGPU {
		return fmt.Errorf("machine %s: GPU spec has kind %v", m.Name, m.GPU.Kind)
	}
	if m.NumGPUs < 1 || m.NumGPUs > 16 {
		return fmt.Errorf("machine %s: NumGPUs must be in [1,16], got %d", m.Name, m.NumGPUs)
	}
	if err := m.Bus.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", m.Name, err)
	}
	if m.NodeCount() > 1 {
		if m.NumGPUs%m.NodeCount() != 0 {
			return fmt.Errorf("machine %s: %d GPUs do not divide across %d nodes", m.Name, m.NumGPUs, m.NodeCount())
		}
		if err := m.Network.Validate(); err != nil {
			return fmt.Errorf("machine %s: %w", m.Name, err)
		}
	}
	return nil
}
