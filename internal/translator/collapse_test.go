package translator

import (
	"strings"
	"testing"

	"accmulti/internal/cc"
)

const collapseSrc = `
int h, w;
float a[h * w], b[h * w];
void main() {
    int r, c;
    #pragma acc localaccess(a) stride(1)
    #pragma acc localaccess(b) stride(1)
    #pragma acc parallel loop collapse(2)
    for (r = 0; r < h; r++) {
        for (c = 0; c < w; c++) {
            b[r * w + c] = a[r * w + c] * 2.0;
        }
    }
}
`

func TestCollapseKernelShape(t *testing.T) {
	m := translate(t, collapseSrc)
	if len(m.Kernels) != 1 {
		t.Fatalf("kernels = %d", len(m.Kernels))
	}
	k := m.Kernels[0]
	if !strings.HasPrefix(k.LoopVar.Name, "__flat_") {
		t.Errorf("collapsed kernel should use a synthesized flat variable, got %q", k.LoopVar.Name)
	}
	if len(k.Arrays) != 2 {
		t.Fatalf("arrays = %d", len(k.Arrays))
	}
	for _, u := range k.Arrays {
		if u.Local == nil {
			t.Errorf("%s: flat-index localaccess must attach", u.Decl.Name)
		}
	}
}

func TestCollapseErrors(t *testing.T) {
	const twoLocal = "#pragma acc localaccess(b) stride(1)\n#pragma acc localaccess(b) stride(1)\n"
	cases := []struct{ pragmas, body, want string }{
		{ // not a perfect nest
			"", `for (r = 0; r < h; r++) {
                a[r] = 0.0;
                for (c = 0; c < w; c++) { b[r * w + c] = 0.0; }
            }`, "perfect loop nest"},
		{ // inner bounds depend on the outer variable
			"", `for (r = 0; r < h; r++) {
                for (c = 0; c < r; c++) { b[r * w + c] = 0.0; }
            }`, "independent"},
		{ // no nested loop at all
			"", `for (r = 0; r < h; r++) { a[r] = 0.0; }`, "loop nest"},
		{ // a second localaccess for one array, on a collapsed loop as on a flat one
			twoLocal, `for (r = 0; r < h; r++) {
                for (c = 0; c < w; c++) { b[r * w + c] = 0.0; }
            }`, `line 6: duplicate localaccess for array "b"`},
		{twoLocal + "#pragma acc parallel loop\n",
			`for (r = 0; r < h; r++) { b[r] = 0.0; }`, `line 6: duplicate localaccess for array "b"`},
	}
	for _, tc := range cases {
		if !strings.HasSuffix(tc.pragmas, "loop\n") {
			tc.pragmas += "#pragma acc parallel loop collapse(2)\n"
		}
		src := "int h, w;\nfloat a[h * w], b[h * w];\nvoid main() {\nint r, c;\n" + tc.pragmas + tc.body + "\n}"
		prog, err := cc.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := Translate(prog); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Translate error = %v, want %q", err, tc.want)
		}
	}

	// collapse(3) rejected.
	src := "int h, w;\nfloat b[h * w];\nvoid main() {\nint r, c;\n#pragma acc parallel loop collapse(3)\nfor (r = 0; r < h; r++) { for (c = 0; c < w; c++) { b[r * w + c] = 0.0; } }\n}"
	prog, err := cc.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(prog); err == nil || !strings.Contains(err.Error(), "collapse(2)") {
		t.Errorf("collapse(3) should be rejected, got %v", err)
	}
}
