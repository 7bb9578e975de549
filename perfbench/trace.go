package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the client's request id to the handler wrappers so
// a handler span finds its client span.
const reqHeader = "X-Bench-Request"

// maxSavedBodies caps the batch request bodies a traced run keeps for
// replay, per node.
const maxSavedBodies = 4000

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code: a client request, or a handler the benchmark
// wrapped. Node spans under a router carry no request id; they nest by
// time under the router span that caused them (the traced routed run
// has one client).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Req    int64     `json:"req,omitempty"`
	Name   string    `json:"name"`
	Node   string    `json:"node,omitempty"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	// Handler spans: response bytes; the batch body (kept for replay,
	// up to maxSavedBodies per node); the single query's URL query; the
	// heap bytes a /rebuild allocated.
	Bytes int64  `json:"bytes,omitempty"`
	Body  []byte `json:"-"`
	Query string `json:"-"`
	Alloc uint64 `json:"alloc,omitempty"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory from the instant from on; a nil tracer
// records nothing.
type tracer struct {
	from    time.Time
	nextReq atomic.Int64
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	saved   map[string]int
}

func newTracer() *tracer { return &tracer{saved: make(map[string]int)} }

// active reports whether spans are being recorded now.
func (t *tracer) active() bool { return t != nil && !t.from.IsZero() && !time.Now().Before(t.from) }

func (t *tracer) newRequest() int64 { return t.nextReq.Add(1) }

func (t *tracer) add(s span) {
	s.ID = t.nextID.Add(1)
	t.mu.Lock()
	if s.Body != nil {
		if t.saved[s.Node] >= maxSavedBodies {
			s.Body = nil
		} else {
			t.saved[s.Node]++
		}
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// wrap puts a timing handler around h. Only the endpoints the workloads
// drive are recorded; health polls pass straight through.
func (t *tracer) wrap(role string, nd *node, h http.Handler) http.Handler {
	nodeID := "router"
	if nd != nil {
		nodeID = nd.id
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var kind string
		switch r.URL.Path {
		case "/query/batch":
			kind = "batch"
		case "/query":
			kind = "single"
		case "/ingest":
			kind = "ingest"
		case "/rebuild":
			kind = "rebuild"
		}
		if kind == "" || !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Name: role + "." + kind, Node: nodeID}
		s.Req, _ = strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		switch kind {
		case "batch":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			s.Body = body
		case "single":
			s.Query = r.URL.RawQuery
		}
		var m0, m1 runtime.MemStats
		if kind == "rebuild" {
			runtime.ReadMemStats(&m0)
		}
		cw := &countingWriter{ResponseWriter: w}
		s.Start = time.Now()
		h.ServeHTTP(cw, r)
		s.End = time.Now()
		if kind == "rebuild" {
			runtime.ReadMemStats(&m1)
			s.Alloc = m1.TotalAlloc - m0.TotalAlloc
		}
		s.Bytes = cw.n
		t.add(s)
	})
}

// link sets every span's parent: handler spans under the client span of
// their request id, id-less node spans under the router span whose
// interval contains them.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clientOf := make(map[int64]int64)
	var routerSpans []*span
	for i := range t.spans {
		s := &t.spans[i]
		if s.Node == "" {
			clientOf[s.Req] = s.ID
		} else if s.Node == "router" {
			routerSpans = append(routerSpans, s)
		}
	}
	sort.Slice(routerSpans, func(i, j int) bool { return routerSpans[i].Start.Before(routerSpans[j].Start) })
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.Node == "":
		case s.Req != 0:
			s.Parent = clientOf[s.Req]
		default:
			j := sort.Search(len(routerSpans), func(j int) bool { return routerSpans[j].Start.After(s.Start) }) - 1
			if j >= 0 && !routerSpans[j].End.Before(s.End) {
				s.Parent = routerSpans[j].ID
			}
		}
	}
}

// children groups spans under their parents.
func (t *tracer) children() map[int64][]*span {
	out := make(map[int64][]*span)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			out[p] = append(out[p], &t.spans[i])
		}
	}
	return out
}

// covered is how much of s's interval the union of kids covers.
func covered(s *span, kids []*span) time.Duration {
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curB) {
			total += curB.Sub(curA)
			curA, curB = x[0], x[1]
		} else if x[1].After(curB) {
			curB = x[1]
		}
	}
	return total + curB.Sub(curA)
}

// write stores the spans as JSON lines (times in µs since the first).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var t0 time.Time
	for i := range t.spans {
		if t0.IsZero() || t.spans[i].Start.Before(t0) {
			t0 = t.spans[i].Start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		rec := struct {
			*span
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
		}{s, us(s.Start.Sub(t0)), us(s.End.Sub(t0))}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
