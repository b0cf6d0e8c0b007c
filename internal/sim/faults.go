package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// Deterministic fault injection: a seed-driven plan of device and bus
// misbehaviour that the simulator replays identically on every run, so
// a failure found once can be reproduced from its seed alone. The plan
// covers the faults a real multi-GPU OpenACC runtime must survive:
// shrunken device memories, a cudaMalloc that fails on the Nth call,
// and transient DMA failures that deserve a retry rather than an abort.

// FaultPlan describes the injected faults of one run. The zero value
// injects nothing.
type FaultPlan struct {
	// Seed drives the transient-failure random stream. Two runs with
	// the same plan see the same fault sequence.
	Seed int64
	// MemShrink in (0,1) scales every GPU's memory capacity down,
	// forcing genuine OutOfMemoryErrors on programs that would fit the
	// real board. Zero (or >= 1) leaves capacities alone.
	MemShrink float64
	// OOMGPU / OOMAlloc inject a one-shot allocation failure: the
	// OOMAlloc-th (1-based) allocation on GPU OOMGPU returns an
	// OutOfMemoryError, modelling fragmentation or a transient
	// cudaMalloc failure. OOMAlloc <= 0 disables the injection.
	OOMGPU   int
	OOMAlloc int
	// TransferFailRate in (0,1] is the probability that one bus
	// transfer attempt fails transiently. The stream is seeded, so the
	// failing attempts are deterministic.
	TransferFailRate float64
	// TransferFailCap bounds consecutive injected transfer failures
	// (default 3), guaranteeing a bounded retry loop eventually
	// succeeds. Raise it past the runtime's retry budget to test the
	// hard-failure path.
	TransferFailCap int
	// LoseNode drains one node of a multi-node machine: every
	// allocation on that node's GPUs returns a NodeLostError for the
	// rest of the run, permanently — unlike the one-shot OOM injection.
	// The loss models a cordoned node: resident memory stays readable
	// (so in-flight data can be evacuated), but no new work lands
	// there. Node 0 hosts the program and cannot be lost; zero
	// disables the injection.
	LoseNode int
}

// failCap normalizes TransferFailCap.
func (p *FaultPlan) failCap() int {
	if p.TransferFailCap <= 0 {
		return 3
	}
	return p.TransferFailCap
}

// Active reports whether the plan injects anything.
func (p *FaultPlan) Active() bool {
	return p != nil && (p.MemShrink > 0 && p.MemShrink < 1 || p.OOMAlloc > 0 || p.TransferFailRate > 0 || p.LoseNode > 0)
}

// String renders the plan in the spec syntax ParseFaultPlan accepts.
func (p *FaultPlan) String() string {
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.MemShrink > 0 && p.MemShrink < 1 {
		parts = append(parts, fmt.Sprintf("shrink=%g", p.MemShrink))
	}
	if p.OOMAlloc > 0 {
		parts = append(parts, fmt.Sprintf("oomgpu=%d", p.OOMGPU), fmt.Sprintf("oomalloc=%d", p.OOMAlloc))
	}
	if p.TransferFailRate > 0 {
		parts = append(parts, fmt.Sprintf("transfail=%g", p.TransferFailRate))
		if p.TransferFailCap > 0 {
			parts = append(parts, fmt.Sprintf("transcap=%d", p.TransferFailCap))
		}
	}
	if p.LoseNode > 0 {
		parts = append(parts, fmt.Sprintf("losenode=%d", p.LoseNode))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses a comma-separated key=value spec, e.g.
// "seed=7,oomgpu=1,oomalloc=5,shrink=0.5,transfail=0.2,transcap=3".
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("sim: fault plan: %q is not key=value", field)
		}
		switch key {
		case "losenode":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("sim: fault plan: %s=%q: %v", key, val, err)
			}
			if n < 1 {
				return nil, fmt.Errorf("sim: fault plan: losenode must be >= 1 (node 0 hosts the program), got %d", n)
			}
			p.LoseNode = n
		case "seed", "oomgpu", "oomalloc", "transcap":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("sim: fault plan: %s=%q: %v", key, val, err)
			}
			switch key {
			case "seed":
				p.Seed = int64(n)
			case "oomgpu":
				p.OOMGPU = n
			case "oomalloc":
				p.OOMAlloc = n
			case "transcap":
				p.TransferFailCap = n
			}
		case "shrink", "transfail":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("sim: fault plan: %s=%q: %v", key, val, err)
			}
			switch key {
			case "shrink":
				if f <= 0 || f >= 1 {
					return nil, fmt.Errorf("sim: fault plan: shrink must be in (0,1), got %g", f)
				}
				p.MemShrink = f
			case "transfail":
				if f < 0 || f > 1 {
					return nil, fmt.Errorf("sim: fault plan: transfail must be in [0,1], got %g", f)
				}
				p.TransferFailRate = f
			}
		default:
			return nil, fmt.Errorf("sim: fault plan: unknown key %q (want seed, shrink, oomgpu, oomalloc, transfail, transcap, losenode)", key)
		}
	}
	return p, nil
}

// faultState is the per-machine injection engine shared by the machine's
// devices. All draws happen on the runtime's host strand, but a mutex
// keeps the counters safe if a device allocates from a worker.
type faultState struct {
	mu          sync.Mutex
	plan        FaultPlan
	rng         *rand.Rand
	allocCounts map[int]int // allocations seen per device ID
	oomFired    bool
	consecFails int
	// lostGPUs maps device IDs on the lost node to its node index.
	// Written once when the plan is armed, read-only afterwards.
	lostGPUs map[int]int
}

// nodeLost reports whether device id sits on a drained node.
func (fs *faultState) nodeLost(devID int) (int, bool) {
	node, ok := fs.lostGPUs[devID]
	return node, ok
}

// InjectFaults arms the plan on this machine: GPU capacities shrink
// immediately, and the allocation / transfer hooks consult the plan
// from now on. Passing nil disarms injection.
func (m *Machine) InjectFaults(plan *FaultPlan) {
	if plan == nil || !plan.Active() {
		m.faults = nil
		for _, g := range m.gpus {
			g.faults = nil
		}
		return
	}
	fs := &faultState{
		plan:        *plan,
		rng:         rand.New(rand.NewSource(plan.Seed)),
		allocCounts: map[int]int{},
	}
	if plan.LoseNode > 0 {
		// A losenode index beyond the machine's node count matches no
		// GPU and degenerates to a no-op, exactly like an oomgpu index
		// the machine does not have.
		fs.lostGPUs = map[int]int{}
		for _, g := range m.gpus {
			if m.Spec.NodeOf(g.ID) == plan.LoseNode {
				fs.lostGPUs[g.ID] = plan.LoseNode
			}
		}
	}
	m.faults = fs
	for _, g := range m.gpus {
		g.faults = fs
		if plan.MemShrink > 0 && plan.MemShrink < 1 {
			g.Spec.MemBytes = int64(float64(g.Spec.MemBytes) * plan.MemShrink)
		}
	}
}

// NodeLostError reports an allocation refused because the device's
// node was drained by an armed fault plan (FaultPlan.LoseNode). Unlike
// OutOfMemoryError it is permanent: the runtime's answer is to
// redistribute onto the surviving nodes, not to retry a smaller
// placement on the same device.
type NodeLostError struct {
	// Node is the drained node's index; GPU the refusing device.
	Node, GPU int
	// Device names the device for diagnostics.
	Device string
}

func (e *NodeLostError) Error() string {
	return fmt.Sprintf("sim: %s unreachable: node %d lost (injected fault)", e.Device, e.Node)
}

// allocFails decides whether the next allocation on device id is the
// plan's one-shot injected OOM. Counting covers every allocation so the
// "Nth allocation" is well defined and reproducible.
func (fs *faultState) allocFails(devID int) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.allocCounts[devID]++
	if fs.oomFired || fs.plan.OOMAlloc <= 0 || devID != fs.plan.OOMGPU {
		return false
	}
	if fs.allocCounts[devID] == fs.plan.OOMAlloc {
		fs.oomFired = true
		return true
	}
	return false
}

// TransferAttemptFails draws the next transient-transfer verdict from
// the seeded stream. At most TransferFailCap consecutive attempts fail,
// so a bounded retry loop is guaranteed to make progress (unless the
// cap is deliberately raised past the retry budget).
func (m *Machine) TransferAttemptFails() bool {
	fs := m.faults
	if fs == nil {
		return false
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.plan.TransferFailRate <= 0 {
		return false
	}
	if fs.consecFails >= fs.plan.failCap() {
		fs.consecFails = 0
		return false
	}
	if fs.rng.Float64() < fs.plan.TransferFailRate {
		fs.consecFails++
		return true
	}
	fs.consecFails = 0
	return false
}
