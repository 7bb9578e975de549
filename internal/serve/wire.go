package serve

// The query wire codec: a reflection-free JSON decoder and append-style
// encoder for the hot query paths — node GET /query and POST
// /query/batch, the router's same two endpoints, and the router→node
// sub-requests behind them. Its contract is byte compatibility with
// encoding/json for these shapes: the decoder accepts and rejects what
// json.Decoder does when decoding into the equivalent structs (Unicode
// case-folded keys, unknown fields skipped, null leaving a field
// untouched, escapes and invalid UTF-8 unquoted the same way, bytes
// after the first value ignored, non-integers rejected for integer
// fields, the 10000-level nesting limit), and the encoder writes the
// bytes json.NewEncoder would (sorted map keys, HTML-escaped strings,
// ES6-style floats, the trailing newline). FuzzQueryWire pins both
// halves against encoding/json. Cold endpoints keep encoding/json.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxBatchBytes caps a /query/batch request body on nodes and routers;
// a larger body is rejected with 413. 8 MiB holds ~500k ranges.
const MaxBatchBytes = 8 << 20

// maxNestingDepth is encoding/json's scanner limit.
const maxNestingDepth = 10000

// maxPooledBytes bounds the buffers the codec's pools keep, so one huge
// request does not pin its buffer for the life of the process.
const maxPooledBytes = 64 << 10

// ReadBody appends everything r yields to dst and returns it.
func ReadBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReadBatchBody reads a /query/batch body through the MaxBatchBytes cap
// into dst. The returned status is 413 for an oversized body, 400 for
// any other read failure.
func ReadBatchBody(dst []byte, w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	dst, err := ReadBody(dst, http.MaxBytesReader(w, r.Body, MaxBatchBytes))
	if err != nil {
		status, err := bodyError(err, "reading batch")
		return dst, status, err
	}
	return dst, 0, nil
}

// bodyError classifies a failed request-body read: 413 when the body
// passed its cap, 400 with "<action> request: err" otherwise.
func bodyError(err error, action string) (int, error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("%s request: %w", action, err)
}

// BatchRequest is the /query/batch request body:
// {"synopsis","metric","ranges":[[a,b],...],"maxerr"}. Decoding into a
// reused BatchRequest reuses its buffers, so steady-state decoding does
// not allocate.
type BatchRequest struct {
	Synopsis string
	Metric   string
	Ranges   [][2]int
	// MaxErr is nil when the request carries no budget; it points into
	// the request, so it is valid until the next Decode.
	MaxErr *float64

	maxErr   float64
	rangesHW int // Ranges backing elements written by this Decode
	sc       scanner
}

// Decode replaces r with the request in data, with the semantics of
// json.Decoder.Decode into a fresh struct of this shape.
func (r *BatchRequest) Decode(data []byte) error {
	syn, met := r.Synopsis, r.Metric
	r.Synopsis, r.Metric, r.MaxErr = "", "", nil
	r.Ranges, r.rangesHW = r.Ranges[:0], 0
	s := &r.sc
	s.reset(data)
	return s.topObject(func(key []byte) error {
		switch {
		case keyIs(key, "synopsis"):
			return s.stringField(&r.Synopsis, syn)
		case keyIs(key, "metric"):
			return s.stringField(&r.Metric, met)
		case keyIs(key, "ranges"):
			return r.decodeRanges()
		case keyIs(key, "maxerr"):
			return s.floatPtrField(&r.MaxErr, &r.maxErr)
		}
		return s.skip(1)
	})
}

// decodeRanges decodes a [][2]int. Like encoding/json it decodes into
// the existing elements of a slice a repeated key already filled (a
// null element leaves one untouched) and zeroes elements it grows into.
func (r *BatchRequest) decodeRanges() error {
	s := &r.sc
	if s.null() {
		r.Ranges, r.rangesHW = r.Ranges[:0], 0
		return nil
	}
	i := 0
	err := s.array(2, func() error {
		r.Ranges, r.rangesHW = growElem(r.Ranges, i, r.rangesHW, [2]int{})
		err := r.decodePair(&r.Ranges[i])
		i++
		return err
	})
	if err != nil {
		return err
	}
	r.Ranges = r.Ranges[:i]
	if i == 0 {
		r.rangesHW = 0
	}
	return nil
}

// decodePair decodes one [a,b] element: missing entries zero, extra
// entries are skipped, null leaves the element (or entry) untouched.
func (r *BatchRequest) decodePair(p *[2]int) error {
	s := &r.sc
	if s.null() {
		return nil
	}
	j := 0
	err := s.array(3, func() error {
		var err error
		if j < len(p) {
			err = s.intField(&p[j])
		} else {
			err = s.skip(3)
		}
		j++
		return err
	})
	for ; j < len(p); j++ {
		p[j] = 0
	}
	return err
}

// AppendBatchRequest encodes a /query/batch request the way
// json.Marshal encodes the equivalent map: empty synopsis and metric are
// omitted, as is a NaN (absent) maxErr.
func AppendBatchRequest(e *Encoder, synopsis, metric string, ranges [][2]int, maxErr float64) {
	e.Raw("{")
	if !math.IsNaN(maxErr) {
		e.Raw(`"maxerr":`)
		e.Float(maxErr)
		e.Raw(",")
	}
	if metric != "" {
		e.Raw(`"metric":`)
		e.String(metric)
		e.Raw(",")
	}
	e.Raw(`"ranges":[`)
	for i, rg := range ranges {
		if i > 0 {
			e.Raw(",")
		}
		e.Raw("[")
		e.Int(int64(rg[0]))
		e.Raw(",")
		e.Int(int64(rg[1]))
		e.Raw("]")
	}
	e.Raw("]")
	if synopsis != "" {
		e.Raw(`,"synopsis":`)
		e.String(synopsis)
	}
	e.Raw("}")
}

// BatchReply is a node's /query/batch reply: {"values","errs","version"}.
type BatchReply struct {
	Values []float64
	// Errs holds the per-range bounds, +Inf where the node sent null (no
	// JSON number decodes to +Inf). NoErrs is true when "errs" was
	// absent or null.
	Errs    []float64
	NoErrs  bool
	Version int64

	valuesHW, errsHW int
	sc               scanner
}

// Decode replaces r with the reply in data, with the semantics of
// json.Decoder.Decode into a fresh {Values []float64; Errs []*float64;
// Version int64}.
func (r *BatchReply) Decode(data []byte) error {
	r.Values, r.valuesHW = r.Values[:0], 0
	r.Errs, r.errsHW, r.NoErrs = r.Errs[:0], 0, true
	r.Version = 0
	s := &r.sc
	s.reset(data)
	return s.topObject(func(key []byte) error {
		switch {
		case keyIs(key, "values"):
			return s.floats(&r.Values, &r.valuesHW, 0, false)
		case keyIs(key, "errs"):
			r.NoErrs = s.null()
			if r.NoErrs {
				r.Errs, r.errsHW = r.Errs[:0], 0
				return nil
			}
			return s.floats(&r.Errs, &r.errsHW, math.Inf(1), true)
		case keyIs(key, "version"):
			return s.intField64(&r.Version)
		}
		return s.skip(1)
	})
}

// floats decodes a []float64 (nullable=false: null entries leave the
// element untouched) or a []*float64 stored as float64 with zero
// standing for nil (nullable=true: null entries reset the element to
// zero).
func (s *scanner) floats(dst *[]float64, hw *int, zero float64, nullable bool) error {
	if s.null() {
		*dst, *hw = (*dst)[:0], 0
		return nil
	}
	i := 0
	err := s.array(2, func() error {
		*dst, *hw = growElem(*dst, i, *hw, zero)
		p := &(*dst)[i]
		i++
		if s.null() {
			if nullable {
				*p = zero
			}
			return nil
		}
		return s.floatField(p)
	})
	if err != nil {
		return err
	}
	*dst = (*dst)[:i]
	if i == 0 {
		*hw = 0
	}
	return nil
}

// QueryReply is a node's GET /query reply:
// {"value","version","path","source","err","rigorous"}.
type QueryReply struct {
	Value   float64
	Version int64
	Path    string
	Source  string
	// Err is the bound, +Inf when absent or null.
	Err      float64
	Rigorous bool

	sc scanner
}

// Decode replaces r with the reply in data, with the semantics of
// json.Decoder.Decode into a fresh struct of this shape (Err a
// *float64).
func (r *QueryReply) Decode(data []byte) error {
	path, src := r.Path, r.Source
	*r = QueryReply{Err: math.Inf(1), sc: r.sc}
	s := &r.sc
	s.reset(data)
	return s.topObject(func(key []byte) error {
		switch {
		case keyIs(key, "value"):
			if s.null() {
				return nil
			}
			return s.floatField(&r.Value)
		case keyIs(key, "version"):
			return s.intField64(&r.Version)
		case keyIs(key, "path"):
			return s.stringField(&r.Path, path)
		case keyIs(key, "source"):
			return s.stringField(&r.Source, src)
		case keyIs(key, "err"):
			if s.null() {
				r.Err = math.Inf(1)
				return nil
			}
			return s.floatField(&r.Err)
		case keyIs(key, "rigorous"):
			return s.boolField(&r.Rigorous)
		}
		return s.skip(1)
	})
}

// growElem makes s[i] addressable for an array decode that reached
// element i, the way encoding/json grows a slice: an element past the
// current length keeps what the backing array holds from earlier in
// this decode (hw marks how far that goes) and is zero beyond it. The
// backing array is carried over whole when it grows.
func growElem[T any](s []T, i, hw int, zero T) ([]T, int) {
	if i < len(s) {
		return s, hw
	}
	if i < cap(s) {
		s = s[:i+1]
	} else {
		s = append(s[:cap(s)], zero)[:i+1]
	}
	if i >= hw {
		s[i] = zero
		hw = i + 1
	}
	return s, hw
}

// scanner is a strict JSON reader over one in-memory document.
type scanner struct {
	data []byte
	pos  int
	// str is the unescape scratch; a string value read through it stays
	// valid until the next string is read.
	str []byte
}

func (s *scanner) reset(data []byte) {
	s.data, s.pos = data, 0
}

func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *scanner) errorf(context string) error {
	if s.pos >= len(s.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", s.data[s.pos], context, s.pos)
}

// typeError reports a well-formed value of the wrong JSON type for its
// field.
func (s *scanner) typeError(want string) error {
	return fmt.Errorf("cannot decode JSON value at offset %d into %s", s.pos, want)
}

// topObject decodes the document's first value: null leaves the target
// zero; an object is walked with field. Anything after the value is
// ignored.
func (s *scanner) topObject(field func(key []byte) error) error {
	s.ws()
	if s.pos >= len(s.data) {
		return io.EOF
	}
	switch s.data[s.pos] {
	case 'n':
		return s.literal("null")
	case '{':
		return s.object(1, field)
	}
	return s.typeError("an object")
}

// object consumes the object at the scanner, at nesting depth, calling
// field with each (unquoted) key and the scanner at its value, which
// field must consume.
func (s *scanner) object(depth int, field func(key []byte) error) error {
	if depth > maxNestingDepth {
		return errors.New("exceeded max depth")
	}
	s.pos++
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == '}' {
		s.pos++
		return nil
	}
	for {
		if s.pos >= len(s.data) || s.data[s.pos] != '"' {
			return s.errorf("looking for beginning of object key string")
		}
		key, err := s.stringValue()
		if err != nil {
			return err
		}
		s.ws()
		if s.pos >= len(s.data) || s.data[s.pos] != ':' {
			return s.errorf("after object key")
		}
		s.pos++
		s.ws()
		if err := field(key); err != nil {
			return err
		}
		if done, err := s.next('}', "after object key:value pair"); done || err != nil {
			return err
		}
	}
}

// array consumes an array at nesting depth, calling elem with the
// scanner at each element, which elem must consume.
func (s *scanner) array(depth int, elem func() error) error {
	if s.pos >= len(s.data) || s.data[s.pos] != '[' {
		return s.typeError("an array")
	}
	if depth > maxNestingDepth {
		return errors.New("exceeded max depth")
	}
	s.pos++
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if done, err := s.next(']', "after array element"); done || err != nil {
			return err
		}
	}
}

// next consumes the separator after a container member: done is true at
// the closing byte; after a comma the scanner is at the next member.
func (s *scanner) next(closing byte, context string) (done bool, err error) {
	s.ws()
	if s.pos >= len(s.data) {
		return false, io.ErrUnexpectedEOF
	}
	switch s.data[s.pos] {
	case closing:
		s.pos++
		return true, nil
	case ',':
		s.pos++
		s.ws()
		return false, nil
	}
	return false, s.errorf(context)
}

// skip consumes any value; depth is its container's nesting depth.
func (s *scanner) skip(depth int) error {
	if s.pos >= len(s.data) {
		return io.ErrUnexpectedEOF
	}
	switch c := s.data[s.pos]; {
	case c == '{':
		return s.object(depth+1, func([]byte) error { return s.skip(depth + 1) })
	case c == '[':
		return s.array(depth+1, func() error { return s.skip(depth + 1) })
	case c == '"':
		_, _, err := s.stringToken()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.number()
		return err
	}
	return s.errorf("looking for beginning of value")
}

func (s *scanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if s.pos >= len(s.data) {
			return io.ErrUnexpectedEOF
		}
		if s.data[s.pos] != word[i] {
			return s.errorf("in literal " + word)
		}
		s.pos++
	}
	return nil
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool {
	if bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		s.pos += 4
		return true
	}
	return false
}

// number consumes a JSON number and returns its literal.
func (s *scanner) number() ([]byte, error) {
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	switch {
	case s.pos >= len(s.data):
		return nil, io.ErrUnexpectedEOF
	case s.data[s.pos] == '0':
		s.pos++
	case '1' <= s.data[s.pos] && s.data[s.pos] <= '9':
		s.digits()
	default:
		return nil, s.errorf("in numeric literal")
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if err := s.someDigits(); err != nil {
			return nil, err
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if err := s.someDigits(); err != nil {
			return nil, err
		}
	}
	return s.data[start:s.pos], nil
}

func (s *scanner) digits() {
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
}

func (s *scanner) someDigits() error {
	start := s.pos
	s.digits()
	if s.pos == start {
		return s.errorf("in numeric literal")
	}
	return nil
}

// stringToken consumes a string and returns its contents between the
// quotes; plain is true when they need no unquoting (no escapes, valid
// UTF-8).
func (s *scanner) stringToken() (raw []byte, plain bool, err error) {
	s.pos++ // opening quote
	start, plain := s.pos, true
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			raw = s.data[start:s.pos]
			s.pos++
			return raw, plain && utf8.Valid(raw), nil
		case c == '\\':
			plain = false
			s.pos++
			if s.pos >= len(s.data) {
				return nil, false, io.ErrUnexpectedEOF
			}
			switch s.data[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for k := 0; k < 4; k++ {
					if s.pos >= len(s.data) {
						return nil, false, io.ErrUnexpectedEOF
					}
					if !isHex(s.data[s.pos]) {
						return nil, false, s.errorf("in \\u hexadecimal character escape")
					}
					s.pos++
				}
			default:
				return nil, false, s.errorf("in string escape code")
			}
		case c < 0x20:
			return nil, false, s.errorf("in string literal")
		default:
			s.pos++
		}
	}
	return nil, false, io.ErrUnexpectedEOF
}

// stringValue consumes a string and returns it unquoted (aliasing the
// input or the scratch buffer).
func (s *scanner) stringValue() ([]byte, error) {
	raw, plain, err := s.stringToken()
	if err != nil || plain {
		return raw, err
	}
	s.str = unquote(s.str[:0], raw)
	return s.str, nil
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote appends the unescaped form of a scanned string's contents, as
// encoding/json's unquoteBytes does: invalid UTF-8 and unpaired
// surrogates become U+FFFD.
func unquote(dst, raw []byte) []byte {
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			r++
			switch e := raw[r]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(raw[r+1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					if r+1 < len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(raw[r+2:])); dec != unicode.ReplacementChar {
							dst = utf8.AppendRune(dst, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			r++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// hex4 decodes four hex digits the scanner has validated.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// keyIs reports whether an object key selects the field named name (a
// lowercase ASCII name) the way encoding/json matches keys: exactly,
// else after case folding, which maps every rune to the smallest rune
// of its unicode.SimpleFold orbit (so "ſ" matches 's', "K" matches 'k').
func keyIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	i := 0
	for len(key) > 0 {
		r, n := rune(key[0]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key)
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		key = key[n:]
		if i >= len(name) || r != rune(name[i]-('a'-'A')) {
			return false
		}
		i++
	}
	return i == len(name)
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		f := unicode.SimpleFold(r)
		if f <= r {
			return f
		}
		r = f
	}
}

// stringField decodes a string field; null leaves it untouched. prev is
// the value the reused struct held before, kept instead of allocating
// when the bytes match.
func (s *scanner) stringField(dst *string, prev string) error {
	if s.null() {
		return nil
	}
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return s.typeError("a string")
	}
	b, err := s.stringValue()
	if err != nil {
		return err
	}
	if string(b) == prev {
		*dst = prev
	} else {
		*dst = string(b)
	}
	return nil
}

// numberLiteral consumes a number where a numeric field expects one.
func (s *scanner) numberLiteral(want string) ([]byte, error) {
	if s.pos >= len(s.data) || s.data[s.pos] != '-' && (s.data[s.pos] < '0' || s.data[s.pos] > '9') {
		return nil, s.typeError(want)
	}
	return s.number()
}

// intField decodes an int field (null leaves it untouched); fractions,
// exponents and out-of-range values are rejected like encoding/json's
// strconv.ParseInt.
func (s *scanner) intField(dst *int) error {
	var n int64
	if s.null() {
		return nil
	}
	if err := s.parseInt(&n, strconv.IntSize); err != nil {
		return err
	}
	*dst = int(n)
	return nil
}

func (s *scanner) intField64(dst *int64) error {
	if s.null() {
		return nil
	}
	return s.parseInt(dst, 64)
}

func (s *scanner) parseInt(dst *int64, bits int) error {
	lit, err := s.numberLiteral("an integer")
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into an integer", lit)
	}
	*dst = n
	return nil
}

// floatField decodes a number into a float64 (the caller handles null).
func (s *scanner) floatField(dst *float64) error {
	lit, err := s.numberLiteral("a number")
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into a float64", lit)
	}
	*dst = f
	return nil
}

// floatPtrField decodes a *float64 field backed by store: null sets it
// nil.
func (s *scanner) floatPtrField(dst **float64, store *float64) error {
	if s.null() {
		*dst = nil
		return nil
	}
	if err := s.floatField(store); err != nil {
		return err
	}
	*dst = store
	return nil
}

func (s *scanner) boolField(dst *bool) error {
	switch {
	case s.null():
	case bytes.HasPrefix(s.data[s.pos:], []byte("true")):
		s.pos += 4
		*dst = true
	case bytes.HasPrefix(s.data[s.pos:], []byte("false")):
		s.pos += 5
		*dst = false
	default:
		return s.typeError("a bool")
	}
	return nil
}

// Encoder appends JSON exactly as encoding/json's Encoder writes it. A
// non-finite float poisons it: Err reports the failure, so a handler
// can answer 500 before writing any header.
type Encoder struct {
	buf []byte
	err error
}

// Reset empties the encoder, keeping its buffer.
func (e *Encoder) Reset() { e.buf, e.err = e.buf[:0], nil }

// Grow makes room for n more bytes.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Bytes returns the encoded bytes and the first encoding error.
func (e *Encoder) Bytes() ([]byte, error) { return e.buf, e.err }

// Raw appends literal JSON text.
func (e *Encoder) Raw(s string) { e.buf = append(e.buf, s...) }

// Int appends an integer.
func (e *Encoder) Int(n int64) { e.buf = strconv.AppendInt(e.buf, n, 10) }

// Bool appends true or false.
func (e *Encoder) Bool(b bool) { e.buf = strconv.AppendBool(e.buf, b) }

// Float appends f with encoding/json's float64 rule: shortest 'f'
// formatting, or 'e' below 1e-6 and at or above 1e21 with the exponent
// written without a leading zero.
func (e *Encoder) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(e.buf)
		if n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// FloatOrNull appends f, or null for +Inf (the unbounded error bound).
func (e *Encoder) FloatOrNull(f float64) {
	if math.IsInf(f, 1) {
		e.Raw("null")
		return
	}
	e.Float(f)
}

// String appends s quoted with encoding/json's HTML-safe escaping.
func (e *Encoder) String(s string) {
	const hex = "0123456789abcdef"
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

// htmlSafe reports whether an ASCII byte needs no escaping under
// encoding/json's HTML-safe rule.
func htmlSafe(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// WriteEncoded finishes a response built in e: a newline as
// json.Encoder writes, then the 200 header and the body. An encoding
// error is returned with a 500 before anything is written.
func WriteEncoded(w http.ResponseWriter, e *Encoder) (int, error) {
	if e.err != nil {
		return http.StatusInternalServerError, e.err
	}
	e.Raw("\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Write errors past the header can only be a dead client.
	_, _ = w.Write(e.buf)
	return 0, nil
}
