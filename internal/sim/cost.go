package sim

import (
	"math/bits"
	"time"
)

// TransferKind classifies a bus transfer by its endpoints.
type TransferKind int

const (
	// HostToDevice moves data from host memory to a GPU memory.
	HostToDevice TransferKind = iota
	// DeviceToHost moves data from a GPU memory to host memory.
	DeviceToHost
	// PeerToPeer moves data directly between two GPU memories (or via
	// a host staging buffer when the bus has no peer path).
	PeerToPeer
)

func (k TransferKind) String() string {
	switch k {
	case HostToDevice:
		return "H2D"
	case DeviceToHost:
		return "D2H"
	case PeerToPeer:
		return "P2P"
	default:
		return "?"
	}
}

// TransferTag classifies *why* a transfer happens — which placement
// or coherence policy produced it. It is pure metadata for the trace
// and metrics layer: the cost model ignores it entirely.
type TransferTag int

const (
	// TagData is a content load or gather of array data.
	TagData TransferTag = iota
	// TagDirty is a dirty-chunk push between replicated copies.
	TagDirty
	// TagHalo is a halo-overlap push of a distributed written array.
	TagHalo
	// TagMiss is miss-record routing for indirect accesses.
	TagMiss
	// TagReduce is reduction-tree traffic (lanes and merged results).
	TagReduce
	// TagScalar is a tiny scalar/reduction-result transfer.
	TagScalar
)

func (t TransferTag) String() string {
	switch t {
	case TagData:
		return "data"
	case TagDirty:
		return "dirty"
	case TagHalo:
		return "halo"
	case TagMiss:
		return "miss"
	case TagReduce:
		return "reduce"
	case TagScalar:
		return "scalar"
	default:
		return "?"
	}
}

// Transfer is one priced bus operation.
type Transfer struct {
	// Kind is the transfer direction.
	Kind TransferKind
	// Bytes is the payload size.
	Bytes int64
	// Src and Dst are GPU indices for PeerToPeer; for host transfers
	// the GPU index is the relevant endpoint and the other is -1.
	Src, Dst int

	// The remaining fields are trace metadata; TransferTime and the
	// fault injector never read them. Label names the array (or
	// reduction variable) moved; Lo..Hi is the inclusive logical
	// element range when meaningful (Hi < Lo otherwise); Tag records
	// the policy that generated the transfer.
	Label  string
	Lo, Hi int64
	Tag    TransferTag
}

// KernelCost prices one kernel execution on this device using a
// roofline model: the kernel takes max(compute time, memory time), both
// derived from counters gathered during functional execution, divided by
// an efficiency factor in (0,1] (e.g. uncoalesced access patterns), plus
// the fixed launch overhead.
func (s *DeviceSpec) KernelCost(c Counters, efficiency float64) time.Duration {
	if efficiency <= 0 || efficiency > 1 {
		efficiency = 1
	}
	compute := float64(c.Flops) / (s.GFLOPS * 1e9)
	memory := float64(c.BytesRead+c.BytesWritten) / (s.MemGBs * 1e9)
	sec := compute
	if memory > sec {
		sec = memory
	}
	sec = sec/efficiency + s.LaunchOverheadUS*1e-6
	return secToDuration(sec)
}

// nodeSeconds is the bandwidth term of one node's share of a phase:
// hostBytes over the links of hostEndpoints distinct GPUs, peerBytes
// over peerPairs distinct (source, destination) pairs.
func (b *BusSpec) nodeSeconds(hostBytes int64, hostEndpoints int, peerBytes int64, peerPairs int) float64 {
	var sec float64
	if hostBytes > 0 {
		sec += float64(hostBytes) / (b.aggregateHostGBs(hostEndpoints) * 1e9)
	}
	if peerBytes > 0 {
		if b.PeerGBs > 0 {
			// Direct peer DMA; concurrent pairs share the fabric with
			// the same concurrency behaviour as the host links.
			sec += float64(peerBytes) / (b.PeerGBs * (1 + float64(peerPairs-1)*b.HostConcurrency) * 1e9)
		} else {
			// Staged through the host: D2H then H2D on the host links.
			sec += 2 * float64(peerBytes) / (b.aggregateHostGBs(peerPairs) * 1e9)
		}
	}
	return sec
}

func (b *BusSpec) aggregateHostGBs(nDevices int) float64 {
	if nDevices < 1 {
		nDevices = 1
	}
	return b.HostLinkGBs * (1 + float64(nDevices-1)*b.HostConcurrency)
}

// pairSet counts distinct (a, b) pairs of GPU ids without allocating:
// pricing runs several times per launch. A validated machine has at
// most 16 GPUs, so a pair of ids in [0, 16) is a bit; any other pair
// spills into a map made on first use, which keeps the count right for
// every transfer list. A set of single GPUs holds the pairs (g, 0).
type pairSet struct {
	bits [4]uint64 // bit a*16 + b
	over map[[2]int]struct{}
}

// add returns 1 when (a, b) was not yet in the set, else 0.
func (s *pairSet) add(a, b int) int {
	if uint(a) < 16 && uint(b) < 16 {
		w, old := a/4, s.bits[a/4]
		s.bits[w] |= 1 << (a%4*16 + b)
		return bits.OnesCount64(s.bits[w] ^ old)
	}
	if s.over == nil {
		s.over = map[[2]int]struct{}{}
	}
	n := len(s.over)
	s.over[[2]int{a, b}] = struct{}{}
	return len(s.over) - n
}

// nodeLoad is what one node carries in a priced phase.
type nodeLoad struct {
	hostBytes, peerBytes     int64
	hostEndpoints, peerPairs int
}

// TransferTime prices a phase of transfers on the whole machine.
// Transfers of the same kind issued in one phase are assumed to be
// pipelined DMAs: they share the relevant aggregate bandwidth and each
// pays the fixed latency.
//
// Within a node, host transfers from/to n distinct GPUs see the
// aggregate host bandwidth HostLinkGBs * (1 + (n-1)*HostConcurrency).
// Peer transfers use the peer path when present; otherwise each peer
// byte is staged through host memory and pays the host link twice (the
// supercomputer node behaviour the paper observes for BFS).
//
// On a cluster, traffic whose endpoints sit on different nodes is staged
// through the endpoint nodes' host memories and the network: intra-node
// work overlaps across nodes (max), the shared network serializes, and
// every network message pays its latency. Host memory (and the host
// program) live on node 0, so host transfers to remote GPUs also cross
// the network. A single node is the cluster of one: nothing crosses.
func (m *MachineSpec) TransferTime(transfers []Transfer) time.Duration {
	// A GPU sits on one node and an intra-node pair on one node, so
	// machine-wide sets tell each node's distinct endpoints and pairs.
	var gpus, pairs pairSet
	var fixed [16]nodeLoad // a validated machine has at most 16 GPUs, so nodes
	loads := fixed[:]
	if m.NodeCount() > len(fixed) {
		loads = make([]nodeLoad, m.NodeCount())
	}
	loads = loads[:m.NodeCount()]
	var netBytes int64
	var nTransfers, netMsgs int

	for _, t := range transfers {
		if t.Bytes <= 0 {
			continue
		}
		nTransfers++
		switch t.Kind {
		case HostToDevice, DeviceToHost:
			g := t.Dst
			if t.Kind == DeviceToHost {
				g = t.Src
			}
			nd := m.NodeOf(g)
			loads[nd].hostBytes += t.Bytes
			loads[nd].hostEndpoints += gpus.add(g, 0)
			if nd != 0 {
				netBytes += t.Bytes
				netMsgs++
			}
		case PeerToPeer:
			n1, n2 := m.NodeOf(t.Src), m.NodeOf(t.Dst)
			if n1 == n2 {
				loads[n1].peerBytes += t.Bytes
				loads[n1].peerPairs += pairs.add(t.Src, t.Dst)
				continue
			}
			// Staged: source PCIe down, network, destination PCIe up.
			netBytes += t.Bytes
			netMsgs++
			loads[n1].hostBytes += t.Bytes
			loads[n1].hostEndpoints += gpus.add(t.Src, 0)
			loads[n2].hostBytes += t.Bytes
			loads[n2].hostEndpoints += gpus.add(t.Dst, 0)
		}
	}

	var slowestNode float64
	for _, l := range loads {
		if sec := m.Bus.nodeSeconds(l.hostBytes, l.hostEndpoints, l.peerBytes, l.peerPairs); sec > slowestNode {
			slowestNode = sec
		}
	}
	sec := slowestNode
	if netBytes > 0 {
		sec += float64(netBytes) / (m.Network.GBs * 1e9)
	}
	sec += float64(nTransfers)*m.Bus.LatencyUS*1e-6 + float64(netMsgs)*m.Network.LatencyUS*1e-6
	return secToDuration(sec)
}

func secToDuration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
