package analysis

// The advisor: which replicated arrays could be distributed. An array
// every kernel accesses block-compatibly gets one program-wide proposal
// (ACCV012); otherwise each loop that only reads it affinely gets its own
// hint (ACCV004). Either way the proposal is the window of the accesses'
// common stride with the halo the reads need.

import (
	"slices"

	"accmulti/internal/diag"
	"accmulti/internal/translator"
)

// proposeWindow is the localaccess the accesses of the sets would fit:
// their common (positive) stride, and the halo they need.
func proposeWindow(sets ...[]translator.IndexForm) (translator.Window, bool) {
	s, ok := translator.CommonCoef(sets...)
	win := translator.Window{S: s}
	win.L, win.R = win.Need(sets...)
	return win, ok && s > 0
}

func (v *vetter) advise() {
	// Program-wide: no kernel declares, reduces, gathers or collapses over
	// the array, some kernel writes it, none races on it, every access has
	// the one stride and every write stays inside its iteration's core
	// block (so no two writes of one loop can be congruent, and the halo is
	// what the reads need).
	type usage struct {
		writer *translator.LoopAccess // first loop that writes
		forms  []translator.IndexForm // every read and write, of every loop
		bad    bool
	}
	var order []string
	uses := map[string]*usage{}
	for _, loop := range v.pa.Loops {
		for _, fp := range loop.Arrays {
			u := uses[fp.Array.Name]
			if u == nil {
				u = &usage{}
				uses[fp.Array.Name] = u
				order = append(order, fp.Array.Name)
			}
			if u.bad = u.bad || fp.Spec != nil || fp.Reduced || fp.IndirectRead || loop.Collapsed; !u.bad {
				u.forms = append(append(u.forms, fp.Reads...), fp.Writes...)
			}
			if len(fp.Writes) > 0 && u.writer == nil {
				u.writer = loop
			}
		}
	}
	for _, name := range order {
		u := uses[name]
		if u.bad || u.writer == nil || v.raced[name] {
			continue
		}
		win, ok := proposeWindow(u.forms)
		core := translator.Window{S: win.S}
		if !ok || slices.ContainsFunc(u.forms, func(f translator.IndexForm) bool { return f.Op != "" && !core.Contains(f) }) {
			continue
		}
		v.add(diag.Info, "ACCV012", pragmaLine(u.writer), 0, name, localaccessFix(name, win),
			"every kernel accesses %q with the common stride %d and writes only its own "+
				"block (halo need (%d, %d)): a localaccess on each loop would distribute the "+
				"array across GPUs instead of replicating and merging it",
			name, win.S, win.L, win.R)
		v.res.Distributable[name] = true
	}

	// Per loop, for what the program-wide proposal does not cover: a
	// replicated read-only array whose reads are affine with one stride.
	for _, loop := range v.pa.Loops {
		for _, fp := range loop.Arrays {
			if v.res.Distributable[fp.Array.Name] || fp.Spec != nil || fp.Written || fp.Reduced || fp.IndirectRead {
				continue
			}
			win, ok := proposeWindow(fp.Reads)
			if !ok {
				continue
			}
			v.add(diag.Info, "ACCV004", pragmaLine(loop), 0, fp.Array.Name, localaccessFix(fp.Array.Name, win),
				"array %q is read-only in this loop and every read is affine "+
					"(footprint [%d*i-%d, %d*(i+1)-1+%d]); a localaccess directive would "+
					"distribute it instead of replicating it to every GPU",
				fp.Array.Name, win.S, win.L, win.S, win.R)
		}
	}
}
