package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeBody reads body to its end and decodes it into v, a *RunRequest
// or a *CompileRequest, as encoding/json's Decoder decodes one value with
// unknown fields refused and nothing but whitespace after it. size is the
// body's Content-Length, negative when it is unknown.
//
// The body is read once into one buffer and walked once (walk). Whatever
// the walk cannot prove encoding/json decodes to the same values, and
// every read error, goes to encoding/json over the same bytes followed by
// the same error, so each value, status and error text is encoding/json's.
func decodeBody(body io.Reader, size int64, v any) error {
	buf, err := readBody(body, size)
	if err == io.EOF && walk(buf, v) {
		return nil
	}
	return decodeJSON(io.MultiReader(bytes.NewReader(buf), failing{err}), v)
}

// readCap is the most readBody allocates before a body's bytes arrive.
const readCap = 1 << 20

// readBody reads r to its first error (io.EOF at the end) into one
// buffer. The buffer starts at size, but never above readCap, so a
// Content-Length alone cannot make it allocate more. A full buffer grows
// only once another byte has arrived: to size when that is more, which
// happens once, after readCap bytes; else, with no length or one that
// was short, to twice its length.
func readBody(r io.Reader, size int64) ([]byte, error) {
	n := int64(512)
	if size >= 0 {
		n = min(size, readCap)
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			var one [1]byte
			k, err := r.Read(one[:])
			if k > 0 {
				next := max(2*int64(len(buf)), 512)
				if size > int64(len(buf)) {
					next = size
				}
				buf = append(append(make([]byte, 0, next), buf...), one[0])
			}
			if err != nil {
				return buf, err
			}
			continue
		}
		k, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
}

// failing is a reader that has nothing but its error.
type failing struct{ err error }

func (f failing) Read([]byte) (int, error) { return 0, f.err }

// decodeJSON decodes one JSON value from r into v with encoding/json,
// refusing unknown fields and anything but whitespace after the value.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest := io.MultiReader(dec.Buffered(), r)
	var buf [512]byte
	for {
		n, err := rest.Read(buf[:])
		if tail := bytes.TrimLeft(buf[:n], " \t\n\r"); len(tail) > 0 {
			return fmt.Errorf("invalid character %q after top-level value", tail[0])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// walk decodes buf into v in one pass, or reports false and leaves v
// zero. It accepts only what it can prove encoding/json decodes to the
// same values: every key byte for byte a field's tag and none twice, no
// null, numbers in JSON's grammar that fit their field, strings whose
// escapes and bytes it decodes exactly as encoding/json does, and nothing
// after the object but whitespace.
func walk(buf []byte, v any) bool {
	w := walker{b: buf}
	switch v := v.(type) {
	case *RunRequest:
		if w.run(v) && w.end() {
			return true
		}
		*v = RunRequest{}
	case *CompileRequest:
		if w.compile(v) && w.end() {
			return true
		}
		*v = CompileRequest{}
	}
	return false
}

// walker is a cursor over a request body.
type walker struct {
	b []byte
	i int
}

// skip moves the cursor past whitespace.
func (w *walker) skip() { w.i = space(w.b, w.i) }

// eat moves the cursor past whitespace and c, if c is next.
func (w *walker) eat(c byte) bool {
	w.skip()
	if w.i < len(w.b) && w.b[w.i] == c {
		w.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (w *walker) end() bool {
	w.skip()
	return w.i == len(w.b)
}

// fields marks the members an object has had.
type fields uint16

// first marks member i and reports whether it was not marked before.
func (f *fields) first(i uint) bool {
	had := *f&(1<<i) != 0
	*f |= 1 << i
	return !had
}

// object walks an object, handing member each key with the cursor before
// its value; member decodes the value or reports false.
func (w *walker) object(member func(key []byte) bool) bool {
	if !w.eat('{') {
		return false
	}
	if w.eat('}') {
		return true
	}
	for {
		key, ok := w.str()
		if !ok || !w.eat(':') || !member(key) {
			return false
		}
		if w.eat('}') {
			return true
		}
		if !w.eat(',') {
			return false
		}
	}
}

func (w *walker) run(r *RunRequest) bool {
	var seen fields
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "source":
			return seen.first(0) && w.text(&r.Source)
		case "machine":
			return seen.first(1) && w.text(&r.Machine)
		case "gpus":
			return seen.first(2) && number(w, &r.GPUs)
		case "mode":
			return seen.first(3) && w.text(&r.Mode)
		case "scalars":
			return seen.first(4) && w.scalars(&r.Scalars)
		case "arrays":
			return seen.first(5) && w.arrays(&r.Arrays)
		case "generator":
			r.Generator = &GeneratorSpec{}
			return seen.first(6) && w.generator(r.Generator)
		case "vet":
			return seen.first(7) && w.boolean(&r.Vet)
		case "options":
			return seen.first(8) && w.options(&r.Options)
		case "faults":
			return seen.first(9) && w.text(&r.Faults)
		case "return_arrays":
			return seen.first(10) && w.texts(&r.ReturnArrays)
		case "timeout_ms":
			return seen.first(11) && number(w, &r.TimeoutMS)
		}
		return false
	})
}

func (w *walker) compile(r *CompileRequest) bool {
	var seen fields
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "source":
			return seen.first(0) && w.text(&r.Source)
		case "vet":
			return seen.first(1) && w.boolean(&r.Vet)
		case "emit_source":
			return seen.first(2) && w.boolean(&r.EmitSource)
		}
		return false
	})
}

func (w *walker) generator(g *GeneratorSpec) bool {
	var seen fields
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "app":
			return seen.first(0) && w.text(&g.App)
		case "scale":
			return seen.first(1) && number(w, &g.Scale)
		case "seed":
			return seen.first(2) && number(w, &g.Seed)
		}
		return false
	})
}

func (w *walker) options(o *RunOptions) bool {
	var seen fields
	return w.object(func(key []byte) bool {
		switch string(key) {
		case "no_async":
			return seen.first(0) && w.boolean(&o.NoAsync)
		case "balance_load":
			return seen.first(1) && w.boolean(&o.BalanceLoad)
		case "audit":
			return seen.first(2) && w.boolean(&o.Audit)
		}
		return false
	})
}

func (w *walker) scalars(m *map[string]float64) bool {
	*m = map[string]float64{}
	return w.object(func(key []byte) bool {
		var v float64
		if _, dup := (*m)[string(key)]; dup || !number(w, &v) {
			return false
		}
		(*m)[string(key)] = v
		return true
	})
}

func (w *walker) arrays(m *map[string]*ArrayPayload) bool {
	*m = map[string]*ArrayPayload{}
	return w.object(func(key []byte) bool {
		if _, dup := (*m)[string(key)]; dup {
			return false
		}
		p := &ArrayPayload{}
		(*m)[string(key)] = p
		var seen fields
		return w.object(func(key []byte) bool {
			switch string(key) {
			case "f32":
				return seen.first(0) && numbers(w, &p.F32)
			case "f64":
				return seen.first(1) && numbers(w, &p.F64)
			case "i32":
				return seen.first(2) && numbers(w, &p.I32)
			}
			return false
		})
	})
}

func (w *walker) boolean(p *bool) bool {
	w.skip()
	switch rest := w.b[w.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*p, w.i = true, w.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*p, w.i = false, w.i+5
	default:
		return false
	}
	return true
}

func (w *walker) text(p *string) bool {
	s, ok := w.str()
	*p = string(s)
	return ok
}

// texts walks a list of strings.
func (w *walker) texts(p *[]string) bool {
	if !w.eat('[') {
		return false
	}
	*p = []string{}
	if w.eat(']') {
		return true
	}
	for {
		var s string
		if !w.text(&s) {
			return false
		}
		*p = append(*p, s)
		if w.eat(']') {
			return true
		}
		if !w.eat(',') {
			return false
		}
	}
}

// str decodes the string at the cursor: a view of the buffer when it
// holds no escape. It refuses a control character, an escape JSON does
// not define, a \u escape of a UTF-16 surrogate and a byte sequence that
// is not UTF-8, all of which encoding/json rejects or replaces.
func (w *walker) str() ([]byte, bool) {
	if !w.eat('"') {
		return nil, false
	}
	b, start := w.b, w.i
	var out []byte // the decoded text, once an escape is met
	lit := start   // the first byte not yet copied to out
	for i := start; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			w.i = i + 1
			if out == nil {
				return b[start:i], true
			}
			return append(out, b[lit:i]...), true
		case c == '\\':
			if i+1 == len(b) {
				return nil, false
			}
			out = append(out, b[lit:i]...)
			e := b[i+1]
			i += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				if i+4 > len(b) {
					return nil, false
				}
				r, err := strconv.ParseUint(string(b[i:i+4]), 16, 16)
				if err != nil || utf16.IsSurrogate(rune(r)) {
					return nil, false
				}
				out = utf8.AppendRune(out, rune(r))
				i += 4
			default:
				return nil, false
			}
			lit = i
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			i += size
		}
	}
	return nil, false
}

// numberEnd returns the end of the number in JSON's grammar that starts
// at b[i], or -1 if none does.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// digits returns the index of the first byte at or after i that is not a
// decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}

// space returns the index of the first byte at or after i that is not
// JSON whitespace.
func space(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// numeric are the number types of the request fields.
type numeric interface {
	float32 | float64 | int32 | int | int64
}

// number walks one number into *p, refusing what encoding/json would not
// store there: a float out of range, an integer field's fraction or
// exponent, an integer out of range.
func number[T numeric](w *walker, p *T) bool {
	w.skip()
	end := numberEnd(w.b, w.i)
	if end < 0 {
		return false
	}
	_, ok := convert(w.b[w.i:end], p)
	w.i = end
	return ok
}

// convert converts the number in JSON's grammar at the start of b as
// encoding/json converts it into a T, and returns where it ends. It uses
// strconv, but for a short plain decimal, where it computes what strconv
// computes for one (a float's exact case: the digits as a float divided
// by an exact power of ten, one rounding).
func convert[T numeric](b []byte, p *T) (end int, ok bool) {
	end, mant, frac, neg, short := decimal(b)
	tok := b[:end]
	var err error
	switch p := any(p).(type) {
	case *float32:
		if short && mant < 1<<23 && frac <= 10 {
			f := float32(mant)
			if neg {
				f = -f
			}
			*p = f / float32(pow10[max(frac, 0)])
			return end, true
		}
		var f float64
		f, err = strconv.ParseFloat(string(tok), 32)
		*p = float32(f)
	case *float64:
		if short && mant < 1<<52 {
			f := float64(mant)
			if neg {
				f = -f
			}
			*p = f / pow10[max(frac, 0)]
			return end, true
		}
		*p, err = strconv.ParseFloat(string(tok), 64)
	case *int32:
		var n int64
		n, err = strconv.ParseInt(string(tok), 10, 32)
		*p = int32(n)
	case *int:
		var n int64
		n, err = strconv.ParseInt(string(tok), 10, strconv.IntSize)
		*p = int(n)
	case *int64:
		*p, err = strconv.ParseInt(string(tok), 10, 64)
	}
	return end, err == nil
}

// pow10 are the powers of ten a float32 (to 1e10) and a float64 hold
// exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// decimal reads the number in JSON's grammar at the start of b: where it
// ends, and for a plain decimal of at most 19 bytes after its sign (no
// exponent), short, its digits as one integer, how many of them follow the
// point (-1 without one) and its sign.
func decimal(b []byte) (end int, mant uint64, frac int, neg, short bool) {
	i := 0
	if neg = b[0] == '-'; neg {
		i++
	}
	start, dot := i, -1
	short = true
scan:
	for ; i < len(b); i++ {
		c := b[i]
		if c-'0' < 10 {
			mant = mant*10 + uint64(c-'0')
			continue
		}
		switch c {
		case '.':
			dot = i
		case 'e', 'E', '+', '-':
			short = false
		default:
			break scan
		}
	}
	frac = -1
	if dot >= 0 {
		frac = i - dot - 1
	}
	return i, mant, frac, neg, short && i-start <= 19
}

// numbers walks a list of numbers into a slice of its length. It first
// walks the elements' grammar to count them, so nothing is allocated for a
// list it then refuses for its shape, then converts each in place.
func numbers[T numeric](w *walker, p *[]T) bool {
	if !w.eat('[') {
		return false
	}
	b, start := w.b, space(w.b, w.i)
	i, n := start, 0
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			if i = numberEnd(b, i); i < 0 {
				return false
			}
			n++
			if i = space(b, i); i == len(b) {
				return false
			}
			c := b[i]
			i = space(b, i+1)
			if c == ']' {
				break
			}
			if c != ',' {
				return false
			}
		}
	}
	w.i = i
	vs := make([]T, n)
	i = start
	for k := range vs {
		end, ok := convert(b[i:], &vs[k])
		if !ok {
			return false
		}
		i = space(b, space(b, i+end)+1)
	}
	*p = vs
	return true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
