package acc

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, text string) *Directive {
	t.Helper()
	d, err := ParseDirective(text, 1)
	if err != nil {
		t.Fatalf("ParseDirective(%q): %v", text, err)
	}
	return d
}

func TestParseDataDirective(t *testing.T) {
	d := mustParse(t, "acc data copyin(a, b) copy(c) copyout(d) create(tmp)")
	if d.Kind != KindData {
		t.Fatalf("kind = %v", d.Kind)
	}
	args, err := d.DataArgs()
	if err != nil {
		t.Fatal(err)
	}
	want := []DataArg{
		{"a", ClassCopyIn}, {"b", ClassCopyIn},
		{"c", ClassCopy}, {"d", ClassCopyOut}, {"tmp", ClassCreate},
	}
	if len(args) != len(want) {
		t.Fatalf("args = %v", args)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Errorf("arg %d = %v, want %v", i, args[i], want[i])
		}
	}
}

func TestParseParallelLoop(t *testing.T) {
	d := mustParse(t, "acc parallel loop gang vector reduction(+:sum) reduction(max:m) copyin(x)")
	if d.Kind != KindParallelLoop {
		t.Fatalf("kind = %v", d.Kind)
	}
	reds, err := d.Reductions()
	if err != nil {
		t.Fatal(err)
	}
	if len(reds) != 2 || reds[0] != (Reduction{RedAdd, "sum"}) || reds[1] != (Reduction{RedMax, "m"}) {
		t.Fatalf("reductions = %v", reds)
	}
	if _, ok := d.Clause("gang"); !ok {
		t.Error("gang clause missing")
	}
}

func TestParseKernelsLoop(t *testing.T) {
	d := mustParse(t, "acc kernels loop")
	if d.Kind != KindParallelLoop {
		t.Fatalf("kind = %v", d.Kind)
	}
}

func TestParseUpdate(t *testing.T) {
	d := mustParse(t, "acc update host(newc, count) device(clusters)")
	if d.Kind != KindUpdate {
		t.Fatalf("kind = %v", d.Kind)
	}
	h, _ := d.Clause("host")
	if len(h.Args) != 2 || h.Args[0] != "newc" {
		t.Fatalf("host args = %v", h.Args)
	}
}

func TestParseLocalAccessStride(t *testing.T) {
	// The 1/2/3-argument forms of the stride clause, including the
	// symmetric-halo shorthand stride(s, h) == stride(s, h, h).
	tests := []struct {
		text                string
		array               string
		stride, left, right string
	}{
		{"acc localaccess(nbr) stride(128)", "nbr", "128", "0", "0"},
		{"acc localaccess(x) stride(1, 2)", "x", "1", "2", "2"},
		{"acc localaccess(x) stride(1, 2, 3)", "x", "1", "2", "3"},
		{"acc localaccess(x) stride(n/4)", "x", "n/4", "0", "0"},
		{"acc localaccess(x) stride(1, 0, 2)", "x", "1", "0", "2"},
		{"acc localaccess(x) stride(2, halo)", "x", "2", "halo", "halo"},
	}
	for _, tc := range tests {
		t.Run(tc.text, func(t *testing.T) {
			la, err := ParseLocalAccess(mustParse(t, tc.text))
			if err != nil {
				t.Fatal(err)
			}
			if !la.HasStride {
				t.Fatal("HasStride = false")
			}
			if la.Array != tc.array || la.Stride != tc.stride || la.Left != tc.left || la.Right != tc.right {
				t.Fatalf("la = %+v, want array=%s stride=%s left=%s right=%s",
					la, tc.array, tc.stride, tc.left, tc.right)
			}
		})
	}
}

func TestLocalAccessClausePositions(t *testing.T) {
	// Columns flow from ParseDirectiveAt through to the structured
	// LocalAccess, and clause-level errors report the clause position.
	text := "acc localaccess(x) stride(1, 2)"
	d, err := ParseDirectiveAt(text, 3, 13) // as if "#pragma " ends at col 12
	if err != nil {
		t.Fatal(err)
	}
	la, err := ParseLocalAccess(d)
	if err != nil {
		t.Fatal(err)
	}
	wantHead := 13 + strings.Index(text, "localaccess")
	wantStride := 13 + strings.Index(text, "stride")
	if la.Col != wantHead || la.ClauseCol != wantStride {
		t.Fatalf("Col = %d, ClauseCol = %d, want %d, %d", la.Col, la.ClauseCol, wantHead, wantStride)
	}

	bad := "acc localaccess(x) stride(1, 2, 3, 4)"
	d, err = ParseDirectiveAt(bad, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ParseLocalAccess(d)
	if err == nil {
		t.Fatal("4-arg stride should fail")
	}
	wantPos := fmt.Sprintf("line 3, col %d", 13+strings.Index(bad, "stride"))
	if !strings.Contains(err.Error(), wantPos) {
		t.Fatalf("error %q should carry the stride clause position %q", err, wantPos)
	}
}

func TestParseLocalAccessBounds(t *testing.T) {
	d := mustParse(t, "acc localaccess(edges) bounds(off[i], off[i+1]-1)")
	la, err := ParseLocalAccess(d)
	if err != nil {
		t.Fatal(err)
	}
	if la.HasStride {
		t.Fatal("bounds form should not report stride")
	}
	if la.Lower != "off[i]" || la.Upper != "off[i+1]-1" {
		t.Fatalf("bounds = %q, %q", la.Lower, la.Upper)
	}
}

func TestParseLocalAccessErrors(t *testing.T) {
	for _, text := range []string{
		"acc localaccess(x)",                        // no clause
		"acc localaccess(x) stride(1) bounds(0, 1)", // both
		"acc localaccess(x) stride()",               // empty
		"acc localaccess(x) stride(1, 2, 3, 4)",     // too many
		"acc localaccess(x) bounds(0)",              // too few
		"acc localaccess(x) bounds()",               // no bounds args
		"acc localaccess(x) bounds(0, 1, 2)",        // too many bounds
		"acc localaccess(x) stride( , 1)",           // empty first arg
		"acc localaccess(x) stride(1, )",            // empty trailing arg
		"acc localaccess(x, y) stride(1)",           // two arrays
		"acc localaccess(3x) stride(1)",             // bad name
	} {
		d, err := ParseDirective(text, 1)
		if err != nil {
			continue // rejected at directive level is fine too
		}
		if _, err := ParseLocalAccess(d); err == nil {
			t.Errorf("ParseLocalAccess(%q) should fail", text)
		}
	}
}

func TestParseReductionToArray(t *testing.T) {
	d := mustParse(t, "acc reductiontoarray(+: newc[m*nf + f])")
	r, err := ParseReductionToArray(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Op != RedAdd || r.Array != "newc" || r.Index != "m*nf + f" {
		t.Fatalf("r = %+v", r)
	}
}

func TestParseReductionToArrayErrors(t *testing.T) {
	for _, text := range []string{
		"acc reductiontoarray(newc[i])",    // no op
		"acc reductiontoarray(+: newc)",    // no index
		"acc reductiontoarray(?: newc[i])", // bad op
		"acc reductiontoarray(+: [i])",     // no array
	} {
		d, err := ParseDirective(text, 1)
		if err != nil {
			continue
		}
		if _, err := ParseReductionToArray(d); err == nil {
			t.Errorf("ParseReductionToArray(%q) should fail", text)
		}
	}
}

func TestParseDirectiveErrors(t *testing.T) {
	for _, text := range []string{
		"omp parallel for",                   // not acc
		"acc",                                // empty
		"acc frobnicate",                     // unknown
		"acc parallel",                       // bare parallel unsupported
		"acc data copyin(a",                  // unbalanced
		"acc data copyin(a,,b)",              // empty arg
		"acc data copyin(a) gang",            // clause invalid on data
		"acc update copyin(a)",               // clause invalid on update
		"acc parallel loop reduction(sum)",   // reduction missing op
		"acc parallel loop reduction(%:x)",   // bad op
		"acc parallel loop reduction(+:a.b)", // not an identifier
		"acc data copyin(a+b)",               // not an identifier
	} {
		d, err := ParseDirective(text, 7)
		if err == nil {
			// Some are only caught by the typed extractors.
			if _, e2 := d.DataArgs(); e2 != nil {
				continue
			}
			if _, e2 := d.Reductions(); e2 != nil {
				continue
			}
			t.Errorf("ParseDirective(%q) should fail", text)
		} else if !strings.Contains(err.Error(), "line 7") {
			t.Errorf("error should carry line number: %v", err)
		}
	}
}

func TestNestedParensInClauseArgs(t *testing.T) {
	d := mustParse(t, "acc localaccess(e) bounds(off[min(i, n-1)], off[i+1]-1)")
	la, err := ParseLocalAccess(d)
	if err != nil {
		t.Fatal(err)
	}
	if la.Lower != "off[min(i, n-1)]" {
		t.Fatalf("nested args broken: %q", la.Lower)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindData, KindParallelLoop, KindUpdate, KindLocalAccess, KindReductionToArray}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("Kind %d has bad String %q", k, s)
		}
		seen[s] = true
	}
	for _, c := range []DataClass{ClassCopy, ClassCopyIn, ClassCopyOut, ClassCreate} {
		if c.String() == "" {
			t.Errorf("DataClass %d has empty String", c)
		}
	}
}

// Property: any directive assembled from valid identifiers parses, and
// DataArgs returns them in order.
func TestDataArgsProperty(t *testing.T) {
	names := []string{"a", "b2", "cc", "xs", "tmp", "zz9"}
	f := func(picks []uint8) bool {
		if len(picks) == 0 || len(picks) > 8 {
			return true
		}
		var used []string
		for _, p := range picks {
			used = append(used, names[int(p)%len(names)])
		}
		text := "acc data copyin(" + strings.Join(used, ", ") + ")"
		d, err := ParseDirective(text, 1)
		if err != nil {
			return false
		}
		args, err := d.DataArgs()
		if err != nil || len(args) != len(used) {
			return false
		}
		for i := range used {
			if args[i].Array != used[i] || args[i].Class != ClassCopyIn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdentityAndMerge(t *testing.T) {
	for op := RedAdd; op <= RedLAnd; op++ {
		if back, ok := ParseRedOp(op.String()); !ok || back != op {
			t.Errorf("ParseRedOp(%q) = %v, %v", op, back, ok)
		}
		idF := op.IdentityF()
		if got := op.MergeF(idF, 5); got != op.MergeF(5, idF) {
			t.Errorf("MergeF(%q) not symmetric around identity", op)
		}
		idI := op.IdentityI()
		if got := op.MergeI(idI, 5); got != op.MergeI(5, idI) {
			t.Errorf("MergeI(%q) not symmetric around identity", op)
		}
	}
	if RedAdd.MergeF(2, 3) != 5 || RedMax.MergeI(2, 3) != 3 || RedMin.MergeI(2, 3) != 2 {
		t.Error("merge results wrong")
	}
	// The reductiontoarray operators: + and *, over either lane type.
	if Apply(RedAdd, 2.0, 3) != 5 || Apply(RedMul, 2.0, 3) != 6 || Apply[int64](RedAdd, 2, 3) != 5 || Apply[int64](RedMul, 2, 3) != 6 {
		t.Error("Apply wrong")
	}
	if RedAdd.IdentityF() != 0 || RedMul.IdentityF() != 1 || RedAdd.IdentityI() != 0 || RedMul.IdentityI() != 1 {
		t.Error("reductiontoarray identities wrong")
	}
	if RedAdd.String() != "+" || RedMul.String() != "*" {
		t.Error("reductiontoarray spellings wrong")
	}
	if RedLOr.MergeI(0, 7) != 1 || RedLAnd.MergeI(1, 0) != 0 || RedOr.MergeI(5, 2) != 7 {
		t.Error("logical merges wrong")
	}
	if !math.IsInf(RedMax.IdentityF(), -1) || !math.IsInf(RedMin.IdentityF(), 1) {
		t.Error("float min/max identities wrong")
	}
	if _, ok := ParseRedOp("?"); ok {
		t.Error("ParseRedOp accepted an unknown operator")
	}
}
