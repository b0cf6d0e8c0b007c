package bench

import (
	"encoding/json"
	"io"
	"time"

	"accmulti/internal/rt"
)

// JSON export of the evaluation, for plotting and regression tooling.
// Durations serialize in microseconds of simulated time.

type jsonReport struct {
	TotalUS, KernelUS, CPUGPUUS, GPUGPUUS float64
	BytesH2D, BytesD2H, BytesP2P          int64
	KernelLaunches                        int
	PeakUserBytes, PeakSystemBytes        int64
}

func toJSONReport(r *rt.Report) jsonReport {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return jsonReport{
		TotalUS:  us(r.Total()),
		KernelUS: us(r.KernelTime), CPUGPUUS: us(r.CPUGPUTime), GPUGPUUS: us(r.GPUGPUTime),
		BytesH2D: r.BytesH2D, BytesD2H: r.BytesD2H, BytesP2P: r.BytesP2P,
		KernelLaunches: r.KernelLaunches,
		PeakUserBytes:  r.PeakUserBytes, PeakSystemBytes: r.PeakSystemBytes,
	}
}

type jsonPoint struct {
	App, Machine, Version string
	GPUs                  int
	Relative              float64
	Breakdown             [3]float64
	MemUser, MemSystem    float64
	Report                jsonReport
}

// JSONDocument is the serialized evaluation bundle.
type JSONDocument struct {
	Config    Config
	Figures   []jsonPoint        `json:",omitempty"`
	Table2    []Table2Row        `json:",omitempty"`
	Ablations []AblationRow      `json:",omitempty"`
	Cluster   []ClusterRow       `json:",omitempty"`
	Async     []AsyncRow         `json:",omitempty"`
	Node      []NodeRow          `json:",omitempty"`
	LoadTest  *LoadTestReport    `json:",omitempty"`
	Headline  map[string]float64 `json:",omitempty"`
}

// WriteJSON serializes an evaluation bundle. Any section may be nil.
func WriteJSON(w io.Writer, res *Results, table2 []Table2Row, abl []AblationRow, cluster []ClusterRow, async []AsyncRow, node []NodeRow, loadtest *LoadTestReport) error {
	doc := JSONDocument{Table2: table2, Ablations: abl, Cluster: cluster, Async: async, Node: node, LoadTest: loadtest}
	if res != nil {
		doc.Config = res.Config
		doc.Headline = res.Headline()
		for _, p := range res.Points {
			doc.Figures = append(doc.Figures, jsonPoint{
				App: p.App, Machine: p.Machine, Version: p.Version,
				GPUs: p.GPUs, Relative: p.Relative, Breakdown: p.Breakdown,
				MemUser: p.MemUser, MemSystem: p.MemSystem,
				Report: toJSONReport(p.Report),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
