package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleTracer() *Tracer {
	t := New()
	t.Emit(Span{Kind: KindPlanCache, Lane: LaneHost, Begin: 0, End: 0, Name: "k0", Detail: "miss"})
	t.Emit(Span{Kind: KindH2D, Lane: 0, Begin: 0, End: 10 * time.Microsecond, Name: "a", Bytes: 4096, Lo: 0, Hi: 1023, Src: -1, Dst: 0})
	t.Emit(Span{Kind: KindH2D, Lane: 1, Begin: 0, End: 10 * time.Microsecond, Name: "a", Bytes: 4096, Lo: 1024, Hi: 2047, Src: -1, Dst: 1})
	t.Emit(Span{Kind: KindSpecKernel, Lane: 0, Begin: 10 * time.Microsecond, End: 25 * time.Microsecond, Name: "k0"})
	t.Emit(Span{Kind: KindDirtyMark, Lane: 0, Begin: 25 * time.Microsecond, End: 25 * time.Microsecond, Name: "a"})
	t.Emit(Span{Kind: KindKernel, Lane: 1, Begin: 10 * time.Microsecond, End: 30 * time.Microsecond, Name: "k0"})
	t.Emit(Span{Kind: KindHalo, Lane: LaneComms, Begin: 30 * time.Microsecond, End: 31 * time.Microsecond, Name: "a", Bytes: 8, Lo: 1023, Hi: 1024, Src: 0, Dst: 1})
	t.Emit(Span{Kind: KindGather, Lane: 0, Begin: 31 * time.Microsecond, End: 40 * time.Microsecond, Name: "a", Bytes: 8192, Lo: 0, Hi: 2047, Src: 0, Dst: -1})
	return t
}

// WriteText prints one line per committed span, in commit order, each
// naming the span's kind, lane and name and the fields it carries.
func TestWriteText(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(tr.Spans()) {
		t.Fatalf("%d lines for %d spans:\n%s", len(lines), len(tr.Spans()), buf.String())
	}
	for i, s := range tr.Spans() {
		if !strings.Contains(lines[i], s.Kind.String()) || !strings.Contains(lines[i], s.Name) {
			t.Errorf("line %d = %q, want kind %s and name %s", i, lines[i], s.Kind, s.Name)
		}
	}
	const halo = "[        30µs] halo-exchange comms  a +1µs [1023,1024] 8B gpu0->gpu1"
	if lines[6] != halo {
		t.Errorf("halo line = %q, want %q", lines[6], halo)
	}
	if want := "[          0s] plan-cache    host   k0 [0,0] (miss)"; lines[0] != want {
		t.Errorf("plan-cache line = %q, want %q", lines[0], want)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := sampleTracer()
	var buf1, buf2 bytes.Buffer
	if err := WriteChrome(&buf1, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&buf2, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteChrome is not byte-stable across calls")
	}
	var doc map[string]any
	if err := json.Unmarshal(buf1.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("output lacks traceEvents")
	}
	got, err := ParseChrome(buf1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffSpans(got, tr.Spans()); d != "" {
		t.Fatalf("round trip diverges:\n%s", d)
	}
}

func TestDiffSpansReportsFirstDivergence(t *testing.T) {
	a := sampleTracer().Spans()
	b := append([]Span(nil), a...)
	b[2].Bytes = 1
	d := DiffSpans(a, b)
	if !strings.Contains(d, "span 2 diverges") {
		t.Errorf("diff = %q, want first divergence at span 2", d)
	}
	if d := DiffSpans(a, a[:len(a)-1]); !strings.Contains(d, "span count differs") {
		t.Errorf("diff = %q, want count mismatch", d)
	}
	if d := DiffSpans(a, a); d != "" {
		t.Errorf("diff of identical streams = %q, want empty", d)
	}
}

func TestCheckWellFormed(t *testing.T) {
	if err := CheckWellFormed(sampleTracer().Spans()); err != nil {
		t.Errorf("sample trace not well-formed: %v", err)
	}
	bad := []Span{{Kind: KindKernel, Lane: 0, Begin: 10, End: 5}}
	if err := CheckWellFormed(bad); err == nil {
		t.Error("negative duration not rejected")
	}
	overlap := []Span{
		{Kind: KindKernel, Lane: 0, Begin: 0, End: 10},
		{Kind: KindKernel, Lane: 0, Begin: 5, End: 15},
	}
	if err := CheckWellFormed(overlap); err == nil {
		t.Error("non-nesting overlap not rejected")
	}
	// Same window on different lanes is fine.
	parallel := []Span{
		{Kind: KindKernel, Lane: 0, Begin: 0, End: 10},
		{Kind: KindKernel, Lane: 1, Begin: 0, End: 10},
	}
	if err := CheckWellFormed(parallel); err != nil {
		t.Errorf("parallel lanes rejected: %v", err)
	}
	// An instant on its parent's end stamp nests (dirty-mark case).
	instant := []Span{
		{Kind: KindKernel, Lane: 0, Begin: 0, End: 10},
		{Kind: KindDirtyMark, Lane: 0, Begin: 10, End: 10},
	}
	if err := CheckWellFormed(instant); err != nil {
		t.Errorf("end-stamp instant rejected: %v", err)
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	m := NewMetrics()
	m.Inc("b.second", 2)
	m.Inc("a.first", 1)
	m.Observe("sizes", BytesBuckets, 100)
	m.Observe("sizes", BytesBuckets, 1<<20)
	m.Observe("sizes", BytesBuckets, 1<<30) // overflow bucket

	var buf1, buf2 bytes.Buffer
	if err := m.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteJSON is not byte-stable")
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Bounds []int64 `json:"bounds"`
			Counts []int64 `json:"counts"`
			Sum    int64   `json:"sum"`
			N      int64   `json:"n"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf1.Bytes(), &doc); err != nil {
		t.Fatalf("metrics output not valid JSON: %v", err)
	}
	if doc.Counters["a.first"] != 1 || doc.Counters["b.second"] != 2 {
		t.Errorf("counters wrong: %v", doc.Counters)
	}
	h := doc.Histograms["sizes"]
	if h.N != 3 || h.Counts[len(h.Counts)-1] != 1 {
		t.Errorf("histogram wrong: %+v", h)
	}
	if strings.Index(buf1.String(), "a.first") > strings.Index(buf1.String(), "b.second") {
		t.Error("counters not sorted by name")
	}
}

func TestBeginProcessGroupsSpans(t *testing.T) {
	tr := New()
	tr.Emit(Span{Kind: KindAlloc, Lane: LaneHost})
	p := tr.BeginProcess("bench/saxpy")
	tr.Emit(Span{Kind: KindAlloc, Lane: LaneHost})
	spans := tr.Spans()
	if spans[0].Proc != 0 || spans[1].Proc != p {
		t.Errorf("procs = %d,%d want 0,%d", spans[0].Proc, spans[1].Proc, p)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"bench/saxpy"`) {
		t.Error("process name metadata missing")
	}
}
