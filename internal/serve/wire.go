package serve

// The query wire codec: a reflection-free JSON decoder and append-style
// encoder for the hot query paths — node GET /query and POST
// /query/batch, the router's same two endpoints, and the router→node
// sub-requests behind them. Its contract is compatibility with
// encoding/json for these shapes. The decoders read the canonical form
// the encoders, the router and well-behaved clients send (see canon)
// without reflection or allocation, and hand any other body whole to
// json.Decoder, so what a body decodes to, and whether it is accepted,
// are encoding/json's. The encoder writes the bytes json.NewEncoder
// would (sorted map keys, HTML-escaped strings, ES6-style floats, the
// trailing newline). FuzzQueryWire pins both halves against
// encoding/json. Cold endpoints keep encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"
)

// MaxBatchBytes caps a /query/batch request body on nodes and routers;
// a larger body is rejected with 413. 8 MiB holds ~500k ranges.
const MaxBatchBytes = 8 << 20

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

	maxErr float64
}

// Decode replaces r with the request in data, with the semantics of
// json.Decoder.Decode into a fresh struct of this shape.
func (r *BatchRequest) Decode(data []byte) error {
	syn, met := r.Synopsis, r.Metric
	r.Synopsis, r.Metric, r.Ranges, r.MaxErr = "", "", r.Ranges[:0], nil
	s := canon{data: data}
	s.expect('{')
	for i := 0; s.more('}', i == 0); i++ {
		switch s.key("synopsis", "metric", "ranges", "maxerr") {
		case "synopsis":
			r.Synopsis = s.string(syn)
		case "metric":
			r.Metric = s.string(met)
		case "ranges":
			s.expect('[')
			for j := 0; s.more(']', j == 0); j++ {
				s.expect('[')
				a := s.int(strconv.IntSize)
				s.expect(',')
				b := s.int(strconv.IntSize)
				s.expect(']')
				r.Ranges = append(r.Ranges, [2]int{int(a), int(b)})
			}
		case "maxerr":
			r.maxErr, r.MaxErr = s.float(), &r.maxErr
		}
	}
	if s.end() {
		return nil
	}
	var v struct {
		Synopsis string   `json:"synopsis"`
		Metric   string   `json:"metric"`
		Ranges   [][2]int `json:"ranges"`
		MaxErr   *float64 `json:"maxerr"`
	}
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&v)
	r.Synopsis, r.Metric, r.MaxErr = v.Synopsis, v.Metric, nil
	r.Ranges = append(r.Ranges[:0], v.Ranges...)
	if v.MaxErr != nil {
		r.maxErr, r.MaxErr = *v.MaxErr, &r.maxErr
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
}

// Decode replaces r with the reply in data, with the semantics of
// json.Decoder.Decode into a fresh {Values []float64; Errs []*float64;
// Version int64}.
func (r *BatchReply) Decode(data []byte) error {
	r.Values, r.Errs, r.NoErrs, r.Version = r.Values[:0], r.Errs[:0], true, 0
	s := canon{data: data}
	s.expect('{')
	for i := 0; s.more('}', i == 0); i++ {
		switch s.key("values", "errs", "version") {
		case "values":
			s.expect('[')
			for j := 0; s.more(']', j == 0); j++ {
				r.Values = append(r.Values, s.float())
			}
		case "errs":
			r.NoErrs = false
			s.expect('[')
			for j := 0; s.more(']', j == 0); j++ {
				bound := math.Inf(1)
				if !s.literal("null") {
					bound = s.float()
				}
				r.Errs = append(r.Errs, bound)
			}
		case "version":
			r.Version = s.int(64)
		}
	}
	if s.end() {
		return nil
	}
	var v struct {
		Values  []float64  `json:"values"`
		Errs    []*float64 `json:"errs"`
		Version int64      `json:"version"`
	}
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&v)
	r.Values = append(r.Values[:0], v.Values...)
	r.Errs, r.NoErrs, r.Version = r.Errs[:0], v.Errs == nil, v.Version
	for _, bound := range v.Errs {
		if bound == nil {
			r.Errs = append(r.Errs, math.Inf(1))
		} else {
			r.Errs = append(r.Errs, *bound)
		}
	}
	return err
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
}

// Decode replaces r with the reply in data, with the semantics of
// json.Decoder.Decode into a fresh struct of this shape (Err a
// *float64).
func (r *QueryReply) Decode(data []byte) error {
	path, src := r.Path, r.Source
	*r = QueryReply{Err: math.Inf(1)}
	s := canon{data: data}
	s.expect('{')
	for i := 0; s.more('}', i == 0); i++ {
		switch s.key("value", "version", "path", "source", "err", "rigorous") {
		case "value":
			r.Value = s.float()
		case "version":
			r.Version = s.int(64)
		case "path":
			r.Path = s.string(path)
		case "source":
			r.Source = s.string(src)
		case "err":
			r.Err = s.float()
		case "rigorous":
			r.Rigorous = s.bool()
		}
	}
	if s.end() {
		return nil
	}
	var v struct {
		Value    float64  `json:"value"`
		Version  int64    `json:"version"`
		Path     string   `json:"path"`
		Source   string   `json:"source"`
		Err      *float64 `json:"err"`
		Rigorous bool     `json:"rigorous"`
	}
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&v)
	*r = QueryReply{Value: v.Value, Version: v.Version, Path: v.Path, Source: v.Source, Err: math.Inf(1), Rigorous: v.Rigorous}
	if v.Err != nil {
		r.Err = *v.Err
	}
	return err
}

// canon reads the canonical form of the wire shapes: each known key
// once and exactly as spelled, strings of printable ASCII without `"`
// or `\`, numbers by the JSON grammar that strconv parses (an integer
// field takes no fraction or exponent), true and false, null only as an
// errs entry, and nothing but whitespace after the closing brace. At
// the first byte outside that form it sets bad, after which every
// method is a no-op returning a zero value, so a decoder is
// straight-line code that asks end once and otherwise leaves the body
// to encoding/json.
type canon struct {
	data []byte
	pos  int
	bad  bool
	seen uint8 // keys of the object already read, by index
}

// peek returns the next byte after whitespace, 0 at the end of the data
// or once bad.
func (s *canon) peek() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			if s.bad {
				return 0
			}
			return c
		}
	}
	return 0
}

func (s *canon) expect(c byte) {
	if s.peek() != c {
		s.bad = true
		return
	}
	s.pos++
}

// more reports whether another member follows in the container closed
// by end, consuming the closing byte or the comma before the member;
// first is true before the container's first member.
func (s *canon) more(end byte, first bool) bool {
	switch c := s.peek(); {
	case c == end:
		s.pos++
		return false
	case first:
		return !s.bad
	case c == ',':
		s.pos++
		return true
	}
	s.bad = true
	return false
}

// key reads an object key and its colon and returns the name in names
// it spells; any other key, or one read before, is outside the form.
func (s *canon) key(names ...string) string {
	k := s.str()
	s.expect(':')
	for i, name := range names {
		if string(k) == name && s.seen&(1<<i) == 0 && !s.bad {
			s.seen |= 1 << i
			return name
		}
	}
	s.bad = true
	return ""
}

// str reads a string and returns its bytes between the quotes.
func (s *canon) str() []byte {
	s.expect('"')
	start := s.pos
	for ; s.pos < len(s.data) && !s.bad; s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1]
		case c < 0x20 || c > 0x7e || c == '\\':
			s.bad = true
		}
	}
	s.bad = true
	return nil
}

// string reads a string value, returning prev (the value a reused
// struct held) rather than allocating when the bytes match.
func (s *canon) string(prev string) string {
	b := s.str()
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// number reads a number literal; integer is false when it has a
// fraction or an exponent.
func (s *canon) number() (lit []byte, integer bool) {
	c := s.peek()
	start := s.pos
	if c == '-' {
		s.pos++
	}
	if s.pos < len(s.data) && s.data[s.pos] == '0' {
		s.pos++
	} else if s.digits() == 0 {
		s.bad = true
	}
	integer = true
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		s.bad = s.bad || s.digits() == 0
		integer = false
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		s.bad = s.bad || s.digits() == 0
		integer = false
	}
	return s.data[start:s.pos], integer
}

func (s *canon) digits() int {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos - start
}

// int reads an integer that fits in bits.
func (s *canon) int(bits int) int64 {
	lit, integer := s.number()
	if s.bad || !integer {
		s.bad = true
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	s.bad = err != nil
	return n
}

func (s *canon) float() float64 {
	lit, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	s.bad = err != nil
	return f
}

func (s *canon) bool() bool {
	if s.literal("true") {
		return true
	}
	s.bad = s.bad || !s.literal("false")
	return false
}

// literal consumes word if it comes next.
func (s *canon) literal(word string) bool {
	if s.peek() != word[0] || len(s.data)-s.pos < len(word) || string(s.data[s.pos:s.pos+len(word)]) != word {
		return false
	}
	s.pos += len(word)
	return true
}

// end reports whether the whole of data was in the canonical form.
func (s *canon) end() bool {
	s.peek()
	return !s.bad && s.pos == len(s.data)
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
