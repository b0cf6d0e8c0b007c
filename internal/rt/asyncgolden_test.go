package rt_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"accmulti/internal/rt"
	"accmulti/internal/sim"
)

// The async schedule's golden table. FuzzAsyncVsSyncSchedule and its
// siblings compare an async run against a sync run of the same build,
// so a scheduler rewrite that moved every makespan consistently would
// pass them all. This table pins the makespan and the recorded hazard
// intervals themselves, for the fuzzer's seed corpus and the replicated
// ping-pong stencil on four machines; it is regenerated only by a
// change that means to move simulated time:
//
//	go test ./internal/rt -run TestAsyncTimeGolden -update-async-golden
var updateAsyncGolden = flag.Bool("update-async-golden", false,
	"rewrite testdata/async_golden.json")

const asyncGoldenPath = "testdata/async_golden.json"

// asyncFuzzSeeds are the seeds FuzzAsyncVsSyncSchedule starts from
// (f.Add plus testdata/fuzz); asyncCorpusSeeds are the ones plain `go
// test` runs through the same check.
var (
	asyncFuzzSeeds   = []int64{0, 7, 42, 12345, 99999}
	asyncCorpusSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
)

type asyncGoldenRow struct {
	Prog    string `json:"prog"`
	Machine string `json:"machine"`
	AsyncNS int64  `json:"async_ns"`
	// Hazards is the SHA-256 of the rendered HazardIntervals(), Records
	// how many (array, location) records it covers.
	Hazards string `json:"hazards_sha256"`
	Records int    `json:"records"`
}

func asyncGoldenRowOf(prog, machine string, r *rt.Runtime) asyncGoldenRow {
	h := sha256.New()
	recs := r.HazardIntervals()
	for _, rec := range recs {
		fmt.Fprintf(h, "%s@%d", rec.Array, rec.GPU)
		for _, iv := range rec.Reads {
			fmt.Fprintf(h, " R%d:%d@%d", iv.Lo, iv.Hi, int64(iv.End))
		}
		for _, iv := range rec.Writes {
			fmt.Fprintf(h, " W%d:%d@%d", iv.Lo, iv.Hi, int64(iv.End))
		}
		fmt.Fprintln(h)
	}
	return asyncGoldenRow{Prog: prog, Machine: machine, AsyncNS: int64(r.Report().AsyncTime),
		Hazards: fmt.Sprintf("%x", h.Sum(nil)), Records: len(recs)}
}

func TestAsyncTimeGolden(t *testing.T) {
	machines := []sim.MachineSpec{sim.Desktop(), sim.SupercomputerNode(), sim.Cluster(2, 2), sim.Cluster(3, 2)}
	var got []asyncGoldenRow
	for _, seed := range append(append([]int64(nil), asyncFuzzSeeds...), asyncCorpusSeeds...) {
		p := genRandProg(rand.New(rand.NewSource(seed)))
		for _, spec := range machines {
			res, err := p.runFull(t, spec, rt.Options{Async: true}, nil)
			if err != nil {
				t.Fatalf("seed %d on %s: %v\n%s", seed, spec.Name, err, p.src)
			}
			got = append(got, asyncGoldenRowOf(fmt.Sprintf("seed%d", seed), spec.Name, res.runtime))
		}
	}
	// The ping-pong runs once with the default 1 MiB chunks (one dirty
	// chunk per GPU: batches of 2 to 12 transfers, long enough to compact
	// the interval sets) and once with 512 B chunks (up to 96 transfers
	// over one array in a batch).
	for _, pp := range []struct {
		name       string
		steps      float64
		chunkBytes int64
	}{{"repl-pingpong", 20, 0}, {"repl-pingpong/chunk512", 3, 512}} {
		tpl := specTemplate{name: pp.name, src: rt.ReplPingPongSrc}
		for _, spec := range machines {
			r, _, err := runSpecTemplate(t, tpl, map[string]float64{"n": 4096, "steps": pp.steps}, 3, spec,
				rt.Options{Async: true, ChunkBytes: pp.chunkBytes})
			if err != nil {
				t.Fatalf("%s on %s: %v", pp.name, spec.Name, err)
			}
			got = append(got, asyncGoldenRowOf(pp.name, spec.Name, r))
		}
	}

	if *updateAsyncGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(asyncGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(asyncGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []asyncGoldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", asyncGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d (regenerate with -update-async-golden)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
