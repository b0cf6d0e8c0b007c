// Package acc models OpenACC directives as they appear in `#pragma acc`
// lines, including the two extensions proposed by Komoda et al. (ICPP
// 2013) for multi-GPU execution:
//
//	#pragma acc localaccess(arr) stride(s[, left[, right]])
//	#pragma acc localaccess(arr) bounds(lowerExpr, upperExpr)
//	#pragma acc reductiontoarray(op: arr[indexExpr])
//
// `localaccess` declares that iteration i of the following parallel loop
// reads only arr[s*i-left .. s*(i+1)-1+right] (stride form) or
// arr[lowerExpr(i) .. upperExpr(i)] (bounds form, expressions over the
// induction variable and host-visible arrays). `reductiontoarray`
// marks the next statement as a reduction into dynamically indexed
// array elements.
//
// The package parses pragma text into structured directives; expression
// arguments are kept as raw strings and parsed later by the C frontend
// in the scope where the loop induction variable is visible.
package acc

import "fmt"

// Kind enumerates the directive types the compiler understands.
type Kind int

const (
	// KindData opens a structured data region: `#pragma acc data ...`
	// followed by a block.
	KindData Kind = iota
	// KindParallelLoop is `#pragma acc parallel loop ...` (or
	// `#pragma acc kernels loop ...`) preceding a for statement.
	KindParallelLoop
	// KindUpdate is the standalone `#pragma acc update host(...)
	// device(...)` executable directive.
	KindUpdate
	// KindLocalAccess is the paper's read-footprint extension.
	KindLocalAccess
	// KindReductionToArray is the paper's array-reduction extension.
	KindReductionToArray
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindParallelLoop:
		return "parallel loop"
	case KindUpdate:
		return "update"
	case KindLocalAccess:
		return "localaccess"
	case KindReductionToArray:
		return "reductiontoarray"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Clause is one `name(arg, arg, ...)` unit of a directive, or a bare
// word such as `gang` (empty Args).
type Clause struct {
	Name string
	Args []string
	// Col is the 1-based source column of the clause name (0 when the
	// directive was parsed without position information).
	Col int
}

// Directive is one parsed `#pragma acc` line.
type Directive struct {
	Kind    Kind
	Clauses []Clause
	// Line is the 1-based source line of the pragma.
	Line int
	// Col is the 1-based source column where the directive text starts.
	Col int
	// Raw is the original pragma text after "acc", for diagnostics.
	Raw string
}

// Clause returns the first clause with the given name, if any.
func (d *Directive) Clause(name string) (Clause, bool) {
	for _, c := range d.Clauses {
		if c.Name == name {
			return c, true
		}
	}
	return Clause{}, false
}

// DataClass is how a data clause moves an array at region boundaries.
type DataClass int

const (
	// ClassCopy moves host→device at entry and device→host at exit.
	ClassCopy DataClass = iota
	// ClassCopyIn moves host→device at entry only.
	ClassCopyIn
	// ClassCopyOut allocates at entry and moves device→host at exit.
	ClassCopyOut
	// ClassCreate allocates device storage with no transfers.
	ClassCreate
	// ClassPresent asserts the array is already device-resident from
	// an enclosing region; no allocation or transfer happens and the
	// inner region does not release it.
	ClassPresent
)

func (c DataClass) String() string {
	switch c {
	case ClassCopy:
		return "copy"
	case ClassCopyIn:
		return "copyin"
	case ClassCopyOut:
		return "copyout"
	case ClassCreate:
		return "create"
	case ClassPresent:
		return "present"
	default:
		return fmt.Sprintf("DataClass(%d)", int(c))
	}
}

// DataArg is one array named in a data clause.
type DataArg struct {
	Array string
	Class DataClass
}

// DataArgs extracts the copy/copyin/copyout/create arguments of a data
// or parallel-loop directive in source order.
func (d *Directive) DataArgs() ([]DataArg, error) {
	var out []DataArg
	for _, c := range d.Clauses {
		var class DataClass
		switch c.Name {
		case "copy":
			class = ClassCopy
		case "copyin":
			class = ClassCopyIn
		case "copyout":
			class = ClassCopyOut
		case "create":
			class = ClassCreate
		case "present":
			class = ClassPresent
		default:
			continue
		}
		for _, a := range c.Args {
			if !isIdent(a) {
				return nil, fmt.Errorf("acc: line %d: %s(%s): argument must be an array name", d.Line, c.Name, a)
			}
			out = append(out, DataArg{Array: a, Class: class})
		}
	}
	return out, nil
}

// Reduction is a scalar reduction clause `reduction(op:var)`.
type Reduction struct {
	Op  RedOp
	Var string
}

// Reductions extracts scalar reduction clauses.
func (d *Directive) Reductions() ([]Reduction, error) {
	var out []Reduction
	for _, c := range d.Clauses {
		if c.Name != "reduction" {
			continue
		}
		for _, a := range c.Args {
			name, v, err := splitColon(a)
			if err != nil {
				return nil, fmt.Errorf("acc: line %d: reduction(%s): %w", d.Line, a, err)
			}
			op, ok := ParseRedOp(name)
			if !ok {
				return nil, fmt.Errorf("acc: line %d: reduction(%s): unsupported operator %q", d.Line, a, name)
			}
			if !isIdent(v) {
				return nil, fmt.Errorf("acc: line %d: reduction(%s): variable must be an identifier", d.Line, a)
			}
			out = append(out, Reduction{Op: op, Var: v})
		}
	}
	return out, nil
}

// LocalAccess is the structured form of a localaccess directive.
type LocalAccess struct {
	// Array is the array the footprint applies to.
	Array string
	// HasStride selects the affine stride form.
	HasStride bool
	// Stride, Left, Right are the raw expressions of the stride form;
	// Left/Right default to "0".
	Stride, Left, Right string
	// Lower, Upper are the raw bound expressions of the bounds form,
	// in terms of the loop induction variable.
	Lower, Upper string
	// Line is the pragma's source line.
	Line int
	// Col is the source column of the localaccess clause, and
	// ClauseCol the column of its stride()/bounds() clause (0 when
	// parsed without position information).
	Col, ClauseCol int
}

// clauseErrf reports an error positioned at one clause of a directive
// rather than at the directive as a whole.
func clauseErrf(d *Directive, c Clause, format string, args ...any) error {
	pos := fmt.Sprintf("line %d", d.Line)
	if c.Col > 0 {
		pos = fmt.Sprintf("line %d, col %d", d.Line, c.Col)
	}
	return fmt.Errorf("acc: %s: %s", pos, fmt.Sprintf(format, args...))
}

// ParseLocalAccess interprets a KindLocalAccess directive.
func ParseLocalAccess(d *Directive) (LocalAccess, error) {
	if d.Kind != KindLocalAccess {
		return LocalAccess{}, fmt.Errorf("acc: line %d: not a localaccess directive", d.Line)
	}
	la := LocalAccess{Line: d.Line}
	head, ok := d.Clause("localaccess")
	if !ok || len(head.Args) != 1 || !isIdent(head.Args[0]) {
		return LocalAccess{}, clauseErrf(d, head, "localaccess needs exactly one array name argument")
	}
	la.Array = head.Args[0]
	la.Col = head.Col
	stride, hasStride := d.Clause("stride")
	bounds, hasBounds := d.Clause("bounds")
	switch {
	case hasStride && hasBounds:
		return LocalAccess{}, clauseErrf(d, bounds, "localaccess(%s): stride and bounds are mutually exclusive", la.Array)
	case hasStride:
		la.HasStride = true
		la.ClauseCol = stride.Col
		if len(stride.Args) < 1 || len(stride.Args) > 3 {
			return LocalAccess{}, clauseErrf(d, stride, "stride() takes 1-3 arguments, got %d", len(stride.Args))
		}
		for i, a := range stride.Args {
			if a == "" {
				return LocalAccess{}, clauseErrf(d, stride, "stride() argument %d is empty", i+1)
			}
		}
		la.Stride = stride.Args[0]
		la.Left, la.Right = "0", "0"
		switch len(stride.Args) {
		case 2:
			// Symmetric halo shorthand: stride(s, h) == stride(s, h, h).
			la.Left, la.Right = stride.Args[1], stride.Args[1]
		case 3:
			la.Left, la.Right = stride.Args[1], stride.Args[2]
		}
	case hasBounds:
		la.ClauseCol = bounds.Col
		if len(bounds.Args) != 2 {
			return LocalAccess{}, clauseErrf(d, bounds, "bounds() takes exactly 2 arguments, got %d", len(bounds.Args))
		}
		for i, a := range bounds.Args {
			if a == "" {
				return LocalAccess{}, clauseErrf(d, bounds, "bounds() argument %d is empty", i+1)
			}
		}
		la.Lower, la.Upper = bounds.Args[0], bounds.Args[1]
	default:
		return LocalAccess{}, clauseErrf(d, head, "localaccess(%s) needs a stride() or bounds() clause", la.Array)
	}
	return la, nil
}

// ReductionToArray is the structured form of the reductiontoarray
// directive: op, destination array and raw index expression.
type ReductionToArray struct {
	Op    RedOp
	Array string
	// Index is the raw index expression (may reference the induction
	// variable and other arrays; it is parsed by the C frontend).
	Index string
	Line  int
}

// ParseReductionToArray interprets a KindReductionToArray directive.
func ParseReductionToArray(d *Directive) (ReductionToArray, error) {
	if d.Kind != KindReductionToArray {
		return ReductionToArray{}, fmt.Errorf("acc: line %d: not a reductiontoarray directive", d.Line)
	}
	head, ok := d.Clause("reductiontoarray")
	if !ok || len(head.Args) != 1 {
		return ReductionToArray{}, fmt.Errorf("acc: line %d: reductiontoarray needs exactly one op:target argument", d.Line)
	}
	name, target, err := splitColon(head.Args[0])
	if err != nil {
		return ReductionToArray{}, fmt.Errorf("acc: line %d: reductiontoarray(%s): %w", d.Line, head.Args[0], err)
	}
	op, ok := ParseRedOp(name)
	if !ok {
		return ReductionToArray{}, fmt.Errorf("acc: line %d: reductiontoarray: unsupported operator %q", d.Line, name)
	}
	arr, idx, err := splitIndex(target)
	if err != nil {
		return ReductionToArray{}, fmt.Errorf("acc: line %d: reductiontoarray(%s): %w", d.Line, head.Args[0], err)
	}
	return ReductionToArray{Op: op, Array: arr, Index: idx, Line: d.Line}, nil
}
