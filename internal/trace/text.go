package trace

import (
	"fmt"
	"io"
)

// WriteText renders the committed spans one line each, in commit order:
// the simulated clock at the span's begin, kind, lane and name, then
// whichever of extent, element range, bytes, transfer endpoints and
// detail the span carries. It is the narration accrun -narrate prints:
// the same statements WriteChrome lays out on lanes, as text.
func WriteText(w io.Writer, t *Tracer) error {
	bw := &errWriter{w: w}
	endpoint := func(g int) string {
		if g < 0 {
			return "host"
		}
		return fmt.Sprintf("gpu%d", g)
	}
	for _, s := range t.Spans() {
		bw.printf("[%12v] %-13s %-6s %s", s.Begin, s.Kind, laneName(s.Lane), s.Name)
		if s.End > s.Begin {
			bw.printf(" +%v", s.Duration())
		}
		if s.Hi >= s.Lo {
			bw.printf(" [%d,%d]", s.Lo, s.Hi)
		}
		if s.Bytes > 0 {
			bw.printf(" %dB", s.Bytes)
		}
		if s.Kind.IsTransfer() {
			bw.printf(" %s->%s", endpoint(s.Src), endpoint(s.Dst))
		}
		if s.Detail != "" {
			bw.printf(" (%s)", s.Detail)
		}
		bw.printf("\n")
	}
	return bw.err
}
