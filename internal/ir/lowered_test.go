package ir_test

import (
	"runtime"
	"strings"
	"testing"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
	"accmulti/internal/translator"
)

// TestLoweredNodesDieWithTheBuild translates the apps and keeps their
// modules, and so every spec, alive; after a collection no byte of the
// lowerings' node blocks may still be in use. A node that a compiled
// closure, the prover or the spec kept would keep its whole body's block.
func TestLoweredNodesDieWithTheBuild(t *testing.T) {
	// Sample every allocation from here on (a rate of 1 takes effect at
	// once), so that the profile sees each node block.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var mods []*ir.Module
	for _, app := range append(apps.All(), apps.Extended()...) {
		prog, err := cc.ParseProgram(app.Source)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := translator.AnalyzeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := translator.Lower(pa)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mod)
	}
	for i := 0; i < 3; i++ { // the profile may lag two collections
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var alloc, inUse int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			if f, more = frames.Next(); strings.HasSuffix(f.Function, "ir.(*lowering).blocks") {
				alloc, inUse = alloc+r.AllocBytes, inUse+r.InUseBytes()
				break
			}
		}
	}
	runtime.KeepAlive(mods)
	if alloc == 0 {
		t.Fatal("the profile holds no node block")
	}
	if inUse != 0 {
		t.Errorf("%d of the %d bytes of node blocks are in use while the specs live", inUse, alloc)
	}
}
