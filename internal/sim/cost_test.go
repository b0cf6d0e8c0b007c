package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refBusTransferTime and refMachineTransferTime are the map-based
// pricing functions as they stood before the allocation-free rewrite,
// kept verbatim as the reference: every floating-point expression of
// cost.go must produce the same duration bit for bit, because simulated
// time feeds golden traces and reports.
func refBusTransferTime(b *BusSpec, transfers []Transfer) time.Duration {
	if len(transfers) == 0 {
		return 0
	}
	var hostBytes, peerBytes int64
	var nTransfers int
	hostEndpoints := map[int]struct{}{}
	peerPairs := map[[2]int]struct{}{}
	for _, t := range transfers {
		if t.Bytes <= 0 {
			continue
		}
		nTransfers++
		switch t.Kind {
		case HostToDevice:
			hostBytes += t.Bytes
			hostEndpoints[t.Dst] = struct{}{}
		case DeviceToHost:
			hostBytes += t.Bytes
			hostEndpoints[t.Src] = struct{}{}
		case PeerToPeer:
			peerBytes += t.Bytes
			peerPairs[[2]int{t.Src, t.Dst}] = struct{}{}
		}
	}
	var sec float64
	if hostBytes > 0 {
		sec += float64(hostBytes) / (b.aggregateHostGBs(len(hostEndpoints)) * 1e9)
	}
	if peerBytes > 0 {
		if b.PeerGBs > 0 {
			sec += float64(peerBytes) / (b.PeerGBs * (1 + float64(len(peerPairs)-1)*b.HostConcurrency) * 1e9)
		} else {
			sec += 2 * float64(peerBytes) / (b.aggregateHostGBs(len(peerPairs)) * 1e9)
		}
	}
	sec += float64(nTransfers) * b.LatencyUS * 1e-6
	return secToDuration(sec)
}

func refMachineTransferTime(m *MachineSpec, transfers []Transfer) time.Duration {
	if m.NodeCount() <= 1 {
		return refBusTransferTime(&m.Bus, transfers)
	}
	nodes := m.NodeCount()
	hostBytes := make([]int64, nodes)
	hostEndpoints := make([]map[int]struct{}, nodes)
	peerBytes := make([]int64, nodes)
	peerPairs := make([]map[[2]int]struct{}, nodes)
	for n := 0; n < nodes; n++ {
		hostEndpoints[n] = map[int]struct{}{}
		peerPairs[n] = map[[2]int]struct{}{}
	}
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
			hostBytes[nd] += t.Bytes
			hostEndpoints[nd][g] = struct{}{}
			if nd != 0 {
				netBytes += t.Bytes
				netMsgs++
			}
		case PeerToPeer:
			n1, n2 := m.NodeOf(t.Src), m.NodeOf(t.Dst)
			if n1 == n2 {
				peerBytes[n1] += t.Bytes
				peerPairs[n1][[2]int{t.Src, t.Dst}] = struct{}{}
				continue
			}
			netBytes += t.Bytes
			netMsgs++
			hostBytes[n1] += t.Bytes
			hostEndpoints[n1][t.Src] = struct{}{}
			hostBytes[n2] += t.Bytes
			hostEndpoints[n2][t.Dst] = struct{}{}
		}
	}

	var slowestNode float64
	for n := 0; n < nodes; n++ {
		var sec float64
		if hostBytes[n] > 0 {
			sec += float64(hostBytes[n]) / (m.Bus.aggregateHostGBs(len(hostEndpoints[n])) * 1e9)
		}
		if peerBytes[n] > 0 {
			if m.Bus.PeerGBs > 0 {
				sec += float64(peerBytes[n]) / (m.Bus.PeerGBs * (1 + float64(len(peerPairs[n])-1)*m.Bus.HostConcurrency) * 1e9)
			} else {
				sec += 2 * float64(peerBytes[n]) / (m.Bus.aggregateHostGBs(len(peerPairs[n])) * 1e9)
			}
		}
		if sec > slowestNode {
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

// randTransfers draws a transfer list over GPU ids in [lo, hi): every
// kind, zero-byte and negative-byte entries, and few enough ids that
// endpoints and pairs repeat.
func randTransfers(rng *rand.Rand, lo, hi int) []Transfer {
	id := func() int { return lo + rng.Intn(hi-lo) }
	tr := make([]Transfer, rng.Intn(40))
	for i := range tr {
		t := &tr[i]
		switch t.Kind = TransferKind(rng.Intn(3)); t.Kind {
		case HostToDevice:
			t.Src, t.Dst = -1, id()
		case DeviceToHost:
			t.Src, t.Dst = id(), -1
		default:
			t.Src, t.Dst = id(), id()
		}
		switch rng.Intn(8) {
		case 0:
			t.Bytes = 0
		case 1:
			t.Bytes = -int64(rng.Intn(100))
		case 2:
			t.Bytes = 1 + rng.Int63n(1<<33)
		default:
			t.Bytes = 1 + rng.Int63n(1<<20)
		}
	}
	return tr
}

// TestTransferTimeMatchesReference pins the rewritten pricing to the
// map-based reference on every machine shape, and its freedom from
// allocation wherever the ids are a real machine's.
func TestTransferTimeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range []MachineSpec{Desktop(), SupercomputerNode(), Cluster(2, 2), Cluster(3, 3), Cluster(16, 1)} {
		m := m
		for i := 0; i < 400; i++ {
			tr := randTransfers(rng, 0, m.NumGPUs)
			want := refMachineTransferTime(&m, tr)
			if got := m.TransferTime(tr); got != want {
				t.Fatalf("%s: TransferTime = %d ns, reference %d ns for %+v", m.Name, got, want, tr)
			}
			if i%40 == 0 {
				if allocs := testing.AllocsPerRun(5, func() { m.TransferTime(tr) }); allocs != 0 {
					t.Fatalf("%s: TransferTime allocates %v objects for %d transfers", m.Name, allocs, len(tr))
				}
			}
		}
		if m.NodeCount() > 1 {
			continue // the cluster model indexes nodes by GPU id: ids must be the machine's
		}
		// More endpoints than the fixed sets hold, and ids no machine has:
		// the spill path must count exactly like the maps did.
		for i := 0; i < 400; i++ {
			tr := randTransfers(rng, -3, 40)
			want := refBusTransferTime(&m.Bus, tr)
			if got := m.TransferTime(tr); got != want {
				t.Fatalf("%s: bus TransferTime = %d ns, reference %d ns for %+v", m.Name, got, want, tr)
			}
		}
	}
}

func FuzzTransferTimeMatchesReference(f *testing.F) {
	f.Add(int64(1), 0, 4)
	f.Add(int64(2), -3, 40)
	f.Fuzz(func(t *testing.T, seed int64, lo, span int) {
		if span <= 0 || span > 1<<20 || lo < -1<<20 || lo > 1<<20 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		for _, m := range []MachineSpec{Desktop(), SupercomputerNode()} {
			tr := randTransfers(rng, lo, lo+span)
			if got, want := m.TransferTime(tr), refBusTransferTime(&m.Bus, tr); got != want {
				t.Fatalf("%s: bus TransferTime = %d ns, reference %d ns for %+v", m.Name, got, want, tr)
			}
		}
		for _, m := range []MachineSpec{Cluster(2, 2), Cluster(3, 3)} {
			tr := randTransfers(rng, 0, m.NumGPUs)
			if got, want := m.TransferTime(tr), refMachineTransferTime(&m, tr); got != want {
				t.Fatalf("%s: TransferTime = %d ns, reference %d ns for %+v", m.Name, got, want, tr)
			}
		}
	})
}
