// Package trace is the runtime's structured tracing and metrics layer.
// The runtime emits spans — begin/end stamped with the *simulated*
// clock — for every observable decision of its three engines (data
// loader, communication manager, kernel launcher) plus the PR-1..PR-4
// subsystems layered on them (degradation ladder, plan cache,
// specialized executors). Because every timestamp derives from the
// deterministic virtual-time accounting, a program's trace is a pure
// function of (source, bindings, machine, options): bit-identical
// across runs, host parallelism on or off, and GOMAXPROCS settings.
// That makes traces goldenable, and the golden/invariance tests under
// internal/core and internal/rt lean on it.
//
// Three sinks consume the span stream:
//
//   - WriteChrome renders Chrome trace-event JSON, loadable in a
//     Chromium browser's about://tracing (or https://ui.perfetto.dev):
//     one lane per GPU plus host and comms lanes.
//   - WriteText renders one line per span (accrun -narrate).
//   - Metrics aggregates counters and fixed-bucket histograms (bytes
//     moved per placement policy, spec hits/fallbacks, reload skips,
//     fault retries), dumped as deterministic JSON.
//
// A Tracer is host-strand-only: the runtime emits every span after the
// barrier of the phase it describes, in an order it chooses itself (GPU
// ascending), so nothing here is synchronized and the committed order
// cannot depend on how goroutines interleave.
package trace

import "time"

// Kind classifies a span.
type Kind uint8

const (
	// KindAlloc is a device storage allocation (instant).
	KindAlloc Kind = iota
	// KindH2D is a host→device content load.
	KindH2D
	// KindGather is a device→host gather (D2H).
	KindGather
	// KindD2D is a GPU-GPU transfer that is not a halo push: dirty
	// chunks between replicas, miss-record routing, reduction trees.
	KindD2D
	// KindHalo is a halo-overlap push of a distributed written array.
	KindHalo
	// KindKernel is one GPU's share of a launch on the interpreter.
	KindKernel
	// KindSpecKernel is one GPU's share on the specialized executor.
	KindSpecKernel
	// KindDirtyMark is the dirty-bit marking window of one (array, GPU)
	// inside a kernel span (instant, at the kernel span's end).
	KindDirtyMark
	// KindDegrade is a fault-handling action: transfer retry/giveup,
	// OOM fallback/giveup (instant, host lane).
	KindDegrade
	// KindPlanCache is a launch-plan cache consultation (instant).
	KindPlanCache
	kindCount
)

var kindNames = [kindCount]string{
	"alloc", "h2d", "gather", "d2d", "halo-exchange",
	"kernel", "spec-kernel", "dirty-mark", "degrade", "plan-cache",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// KindFromString inverts Kind.String (ok=false for unknown names).
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// IsTransfer reports whether the kind is a priced bus transfer.
func (k Kind) IsTransfer() bool {
	switch k {
	case KindH2D, KindGather, KindD2D, KindHalo:
		return true
	}
	return false
}

// Lanes. GPU g is lane g; the host strand and the communication
// manager get pseudo-lanes below zero.
const (
	// LaneHost carries host-strand spans (degrade, plan-cache).
	LaneHost = -1
	// LaneComms carries GPU-GPU transfer spans (single-node machines).
	LaneComms = -2
	// laneNICBase is LaneNIC(0); lanes at or below it belong to the
	// per-node NIC family of multi-node machines.
	laneNICBase = -3
)

// LaneNIC returns the comms lane of node n's network interface. On a
// multi-node machine every transfer span lands on the NIC lane of its
// destination's node — cross-node traffic tagged "nic", intra-node
// peer traffic tagged "p2p" — so the viewer shows one comms row per
// node. Single-node machines keep the plain comms lane.
func LaneNIC(node int) int { return laneNICBase - node }

// NICLaneNode inverts LaneNIC (ok=false for non-NIC lanes).
func NICLaneNode(lane int) (int, bool) {
	if lane <= laneNICBase {
		return laneNICBase - lane, true
	}
	return 0, false
}

// Span is one traced operation. Begin and End are simulated-clock
// stamps (End == Begin for instants). Lo..Hi is the inclusive logical
// element range the operation covers (Hi < Lo when not meaningful);
// Src/Dst are the transfer endpoints of transfer-kind spans.
type Span struct {
	Kind       Kind
	Lane       int
	Proc       int // trace process (one per benchmark run); 0 otherwise
	Begin, End time.Duration
	Name       string // kernel or array name; event kind for degrades
	Bytes      int64
	Lo, Hi     int64
	Src, Dst   int
	Detail     string
}

// Duration is the span's extent (0 for instants).
func (s Span) Duration() time.Duration { return s.End - s.Begin }

// Tracer collects spans and aggregates metrics for one or more runs.
type Tracer struct {
	mets  *Metrics
	spans []Span
	procs []string
	pid   int
}

// New returns an empty tracer with one unnamed trace process.
func New() *Tracer {
	return &Tracer{mets: NewMetrics(), procs: []string{""}}
}

// Metrics returns the tracer's aggregate registry.
func (t *Tracer) Metrics() *Metrics { return t.mets }

// Spans returns the committed spans in commit order. The slice is
// owned by the tracer; callers must not mutate it.
func (t *Tracer) Spans() []Span { return t.spans }

// BeginProcess groups subsequent spans under a new named trace process
// — one per measured configuration when a benchmark sweep shares a
// tracer — and returns its id. Host strand only.
func (t *Tracer) BeginProcess(name string) int {
	t.procs = append(t.procs, name)
	t.pid = len(t.procs) - 1
	return t.pid
}

// Emit commits one span. Host strand only.
func (t *Tracer) Emit(s Span) {
	s.Proc = t.pid
	t.spans = append(t.spans, s)
	if s.Kind < kindCount {
		t.mets.spans[s.Kind]++
	} else {
		t.mets.Inc(spanPrefix+s.Kind.String(), 1)
	}
	switch s.Kind {
	case KindKernel, KindSpecKernel:
		t.mets.Observe("kernel.duration_us", DurationBucketsUS, int64(s.Duration()/time.Microsecond))
	default:
		if s.Kind.IsTransfer() {
			t.mets.Observe("transfer.bytes", BytesBuckets, s.Bytes)
		}
	}
}
