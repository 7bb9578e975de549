package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/histogram"
	"rangeagg/internal/method"
	"rangeagg/internal/plan"
)

// The structs the query paths decoded with encoding/json before the
// wire codec; the differential below holds the codec to them.
type (
	jsonBatchRequest struct {
		Synopsis string   `json:"synopsis"`
		Metric   string   `json:"metric"`
		Ranges   [][2]int `json:"ranges"`
		MaxErr   *float64 `json:"maxerr"`
	}
	jsonBatchReply struct {
		Values  []float64  `json:"values"`
		Errs    []*float64 `json:"errs"`
		Version int64      `json:"version"`
	}
	jsonQueryReply struct {
		Value    float64  `json:"value"`
		Version  int64    `json:"version"`
		Path     string   `json:"path"`
		Source   string   `json:"source"`
		Err      *float64 `json:"err"`
		Rigorous bool     `json:"rigorous"`
	}
)

// jsonDecode decodes the way the handlers did: json.Decoder reads the
// first value and ignores whatever follows it (json.Unmarshal would
// reject trailing bytes, which the old handlers never did).
func jsonDecode(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloatPtr(a *float64, b float64, nilValue float64) bool {
	if a == nil {
		return sameFloat(b, nilValue)
	}
	return sameFloat(*a, b)
}

// dirtyRequest and dirtyReply pre-fill reused decode targets, so the
// differential also checks that nothing leaks from an earlier decode.
var (
	dirtyRequest = []byte(`{"synopsis":"old","metric":"SUM","maxerr":9,"ranges":[[7,8],[9,10],[11,12],[13,14],[15,16]]}`)
	dirtyReply   = []byte(`{"values":[1,2,3,4,5,6],"errs":[1,null,3,4,5,6],"version":77,"value":5,"path":"probe","source":"old","err":4,"rigorous":true}`)
)

func checkDecodeDifferential(t *testing.T, data []byte) {
	t.Helper()
	var want jsonBatchRequest
	wantErr := jsonDecode(data, &want)
	var reused BatchRequest
	if err := reused.Decode(dirtyRequest); err != nil {
		t.Fatal(err)
	}
	for _, got := range []*BatchRequest{new(BatchRequest), &reused} {
		err := got.Decode(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("batch request %q: codec err %v, encoding/json err %v", data, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Synopsis != want.Synopsis || got.Metric != want.Metric ||
			len(got.Ranges) != len(want.Ranges) || (got.MaxErr == nil) != (want.MaxErr == nil) ||
			got.MaxErr != nil && !sameFloat(*got.MaxErr, *want.MaxErr) {
			t.Fatalf("batch request %q: codec %+v, encoding/json %+v", data, got, want)
		}
		for i := range want.Ranges {
			if got.Ranges[i] != want.Ranges[i] {
				t.Fatalf("batch request %q: range %d codec %v, encoding/json %v", data, i, got.Ranges[i], want.Ranges[i])
			}
		}
	}

	var wantReply jsonBatchReply
	wantErr = jsonDecode(data, &wantReply)
	var reusedReply BatchReply
	if err := reusedReply.Decode(dirtyReply); err != nil {
		t.Fatal(err)
	}
	for _, got := range []*BatchReply{new(BatchReply), &reusedReply} {
		err := got.Decode(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("batch reply %q: codec err %v, encoding/json err %v", data, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Version != wantReply.Version || len(got.Values) != len(wantReply.Values) ||
			got.NoErrs != (wantReply.Errs == nil) || len(got.Errs) != len(wantReply.Errs) {
			t.Fatalf("batch reply %q: codec %+v, encoding/json %+v", data, got, wantReply)
		}
		for i := range wantReply.Values {
			if !sameFloat(got.Values[i], wantReply.Values[i]) {
				t.Fatalf("batch reply %q: value %d codec %v, encoding/json %v", data, i, got.Values[i], wantReply.Values[i])
			}
		}
		for i := range wantReply.Errs {
			if !sameFloatPtr(wantReply.Errs[i], got.Errs[i], math.Inf(1)) {
				t.Fatalf("batch reply %q: err %d codec %v, encoding/json %v", data, i, got.Errs[i], wantReply.Errs[i])
			}
		}
	}

	var wantOne jsonQueryReply
	wantErr = jsonDecode(data, &wantOne)
	var reusedOne QueryReply
	if err := reusedOne.Decode(dirtyReply); err != nil {
		t.Fatal(err)
	}
	for _, got := range []*QueryReply{new(QueryReply), &reusedOne} {
		err := got.Decode(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("query reply %q: codec err %v, encoding/json err %v", data, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !sameFloat(got.Value, wantOne.Value) || got.Version != wantOne.Version || got.Path != wantOne.Path ||
			got.Source != wantOne.Source || got.Rigorous != wantOne.Rigorous || !sameFloatPtr(wantOne.Err, got.Err, math.Inf(1)) {
			t.Fatalf("query reply %q: codec %+v, encoding/json %+v", data, got, wantOne)
		}
	}
}

// jsonEncode is the old response path: json.NewEncoder(w).Encode(v).
func jsonEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkEncodeDifferential holds the encoders to the maps the handlers
// used to hand encoding/json.
func checkEncodeDifferential(t *testing.T, value, bound float64, name string, version int64) {
	t.Helper()
	compare := func(what string, got *Encoder, old any) {
		t.Helper()
		got.Raw("\n")
		gotBytes, gotErr := got.Bytes()
		want, wantErr := jsonEncode(old)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: codec err %v, encoding/json err %v", what, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(gotBytes, want) {
			t.Fatalf("%s:\ncodec         %q\nencoding/json %q", what, gotBytes, want)
		}
	}

	// Node GET /query.
	res := Result{Value: value, Bound: bound, Rigorous: bound == 0, Path: plan.PathProbe, Source: name}
	old := map[string]any{"value": res.Value, "version": version, "path": res.Path.String(), "source": res.Source}
	if !math.IsInf(res.Bound, 1) {
		old["err"] = res.Bound
		old["rigorous"] = res.Rigorous
	}
	var e Encoder
	appendQueryResponse(&e, res, version)
	compare("query response", &e, old)

	// Node POST /query/batch, mixing bounded and unbounded answers.
	results := []Result{
		{Value: value, Bound: bound},
		{Value: bound, Bound: math.Inf(1)},
		{Value: -value, Bound: 0},
		{Value: value * 1e-300, Bound: math.Abs(value) * 1e300},
	}
	values := make([]float64, len(results))
	errs := make([]*float64, len(results))
	for i, r := range results {
		values[i] = r.Value
		if !math.IsInf(r.Bound, 1) {
			b := r.Bound
			errs[i] = &b
		}
	}
	e.Reset()
	appendBatchResponse(&e, results, version)
	compare("batch response", &e, map[string]any{"values": values, "errs": errs, "version": version})

	// Router→node batch sub-request (json.Marshal: no newline).
	ranges := [][2]int{{int(version), int(version >> 1)}, {0, -1}}
	req := map[string]any{"ranges": ranges}
	if name != "" {
		req["synopsis"] = name
		req["metric"] = name
	}
	if !math.IsNaN(bound) {
		req["maxerr"] = bound
	}
	e.Reset()
	AppendBatchRequest(&e, name, name, ranges, bound)
	gotBytes, gotErr := e.Bytes()
	want, wantErr := json.Marshal(req)
	if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !bytes.Equal(gotBytes, want) {
		t.Fatalf("batch request: codec %q (%v), encoding/json %q (%v)", gotBytes, gotErr, want, wantErr)
	}
}

// FuzzQueryWire is the codec's compatibility contract: for arbitrary
// bytes the decoders accept and reject exactly what encoding/json did
// for the same shapes and agree on every decoded field; for arbitrary
// values, bounds and names the encoders write encoding/json's bytes and
// fail exactly when it does.
func FuzzQueryWire(f *testing.F) {
	for _, seed := range []string{
		`{"synopsis":"h","metric":"COUNT","ranges":[[0,10],[5,63]],"maxerr":0.5}`,
		`{"ranges":[[1,2]]} trailing garbage`,
		`null`, `nullx`, `nul`, ``, `   `, `[]`, `"x"`, `12`, `{}`, `{`, `{"ranges":[[1,2],]}`,
		`{"SYNOPSIS":"a","Metric":"sum","RANGES":[[3,4]],"MaxErr":null}`,
		`{"ſynopsis":"long s","metrİc":"dotted","rangeſ":[[1,1]],"maxerr":1e-7}`,
		`{"synopsis":"\u00e9\ud83d\ude00\ud800x\udc00\"\\\/\b\f\n\r\t","ranges":null}`,
		"{\"synopsis\":\"\xff\xfe bad utf8 \xed\xa0\x80\"}",
		`{"ranges":[[1],[],[1,2,3,{"deep":[true,false,null,"s"]}],null,[null,7]]}`,
		`{"ranges":[[1,2],[3,4],[5,6]],"ranges":[[9,9]],"ranges":[[0,0],null,null]}`,
		`{"ranges":[[1,2]],"ranges":[],"ranges":[null]}`,
		`{"ranges":[[1.5,2]]}`, `{"ranges":[[1e3,2]]}`, `{"ranges":[[-0,9223372036854775807]]}`,
		`{"ranges":[[9223372036854775808,0]]}`, `{"ranges":[["1",2]]}`, `{"ranges":[[01,2]]}`,
		`{"maxerr":-0}`, `{"maxerr":1e400}`, `{"maxerr":4.9e-324}`, `{"maxerr":"1"}`, `{"maxerr":true}`,
		`{"unknown":{"a":[1,{"b":null}],"c":-1.5e+3},"synopsis":"x"}`,
		`{"values":[1,null,2.5,-0],"errs":[null,0,1e21],"version":3}`,
		`{"values":[1,2],"errs":null,"version":null}`, `{"values":[],"errs":[]}`,
		`{"values":[1,2,3],"values":[null,9],"errs":[1,2,3],"errs":[null]}`,
		`{"value":12.5,"version":4,"path":"probe","source":"h","err":0.25,"rigorous":true}`,
		`{"value":null,"err":null,"rigorous":null,"path":null}`, `{"rigorous":1}`, `{"rigorous":tru}`,
		`{"version":1.0}`, `{"synopsis":"a"  ,  "metric" : "b" }` + "\n\t",
	} {
		f.Add([]byte(seed), 1.0, 0.5, "h", int64(1))
	}
	for _, v := range []float64{math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
		1e21, 1e20, 123456789012345680000, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add([]byte(`{}`), v, v, "<a&b>\u2028\u2029\x00\x1f\"\\é\xff", int64(-1))
	}
	// What real traffic carries: each encoder's own output and a
	// perfbench-shaped request (strconv 'g' budgets, an empty synopsis).
	var e Encoder
	appendBatchResponse(&e, []Result{{Value: 12.5, Bound: 0.25}, {Value: -3, Bound: math.Inf(1)}, {Value: 1e21, Bound: 0}}, 7)
	appendQueryResponse(&e, Result{Value: 4.5, Bound: 1e-7, Rigorous: true, Path: plan.PathEscalate, Source: "fine"}, 8)
	appendQueryResponse(&e, Result{Value: 0, Bound: math.Inf(1), Path: plan.PathExact}, 9)
	AppendBatchRequest(&e, "seg", "SUM", [][2]int{{0, 10}, {5, 63}}, 0.5)
	AppendBatchRequest(&e, "", "", [][2]int{{1, 2}}, math.NaN())
	encoded, _ := e.Bytes()
	for _, seed := range bytes.SplitAfter(encoded, []byte("}")) {
		if len(seed) > 0 {
			f.Add(append([]byte(nil), seed...), 1.0, 0.5, "h", int64(1))
		}
	}
	for _, seed := range []string{
		`{"synopsis":"coarse","maxerr":1e+06,"ranges":[[0,10],[5,63]]}`,
		`{"synopsis":"","ranges":[[65535,65535]]}`,
	} {
		f.Add([]byte(seed), 1.0, 0.5, "h", int64(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, value, bound float64, name string, version int64) {
		checkDecodeDifferential(t, data)
		checkEncodeDifferential(t, value, bound, name, version)
	})
}

// TestQueryWireDepthLimit pins encoding/json's 10000-level nesting
// limit (kept out of the fuzz seeds: inputs this large slow every
// mutation round).
func TestQueryWireDepthLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999, 10000} {
		for _, open := range []string{"[", `{"k":`} {
			closing := "]"
			if open != "[" {
				closing = "}"
			}
			checkDecodeDifferential(t, []byte(`{"a":`+strings.Repeat(open, depth)+"0"+strings.Repeat(closing, depth)+`}`))
			checkDecodeDifferential(t, []byte(`{"ranges":[[1,2,`+strings.Repeat(open, depth)+"0"+strings.Repeat(closing, depth)+`]]}`))
		}
	}
}

// TestQueryWireAllocs keeps reflection (and its allocations) out of the
// hot path: decoding into a reused request and encoding a 64-range
// response into a reused encoder allocate nothing, and neither does
// decoding what the node's encoders write into reused replies — so real
// traffic never falls back to encoding/json.
func TestQueryWireAllocs(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(`{"synopsis":"seg","metric":"COUNT","maxerr":12.5,"ranges":[`)
	results := make([]Result, 64)
	for i := range results {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, "[%d,%d]", i*97, i*97+1000)
		results[i] = Result{Value: float64(i) * 1234.5678, Bound: float64(i) / 3}
		if i%5 == 0 {
			results[i].Bound = math.Inf(1)
		}
	}
	body.WriteString(`]}`)
	data := body.Bytes()

	var req BatchRequest
	var enc Encoder
	run := func() {
		if err := req.Decode(data); err != nil {
			t.Fatal(err)
		}
		enc.Reset()
		appendBatchResponse(&enc, results, 42)
	}
	run()
	if len(req.Ranges) != 64 || req.Synopsis != "seg" || req.MaxErr == nil || *req.MaxErr != 12.5 {
		t.Fatalf("decoded %+v", req)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("decode + encode of a 64-range batch: %v allocs, want 0", allocs)
	}

	// The node's batch reply as served (with null bounds and the
	// trailing newline), into the router's reused BatchReply.
	enc.Raw("\n")
	batch, _ := enc.Bytes()
	var reply BatchReply
	decodeReply := func() {
		if err := reply.Decode(batch); err != nil {
			t.Fatal(err)
		}
	}
	decodeReply()
	if len(reply.Values) != 64 || len(reply.Errs) != 64 || reply.NoErrs || reply.Version != 42 ||
		!math.IsInf(reply.Errs[0], 1) || reply.Errs[1] != results[1].Bound || reply.Values[63] != results[63].Value {
		t.Fatalf("decoded %+v", reply)
	}
	if allocs := testing.AllocsPerRun(100, decodeReply); allocs != 0 {
		t.Fatalf("batch reply decode: %v allocs, want 0", allocs)
	}

	// The node's single-query reply, bounded and unbounded.
	for _, res := range []Result{
		{Value: 1234.5, Bound: 0.125, Rigorous: true, Path: plan.PathEscalate, Source: "fine"},
		{Value: -7, Bound: math.Inf(1), Path: plan.PathProbe, Source: "coarse"},
	} {
		var e Encoder
		appendQueryResponse(&e, res, 9)
		e.Raw("\n")
		one, _ := e.Bytes()
		var got QueryReply
		decodeOne := func() {
			if err := got.Decode(one); err != nil {
				t.Fatal(err)
			}
		}
		decodeOne()
		if got.Value != res.Value || got.Err != res.Bound || got.Rigorous != res.Rigorous ||
			got.Path != res.Path.String() || got.Source != res.Source || got.Version != 9 {
			t.Fatalf("decoded %+v from %q", got, one)
		}
		if allocs := testing.AllocsPerRun(100, decodeOne); allocs != 0 {
			t.Fatalf("query reply decode of %q: %v allocs, want 0", one, allocs)
		}
	}
}

// TestBatchBodyLimit: an oversized /query/batch body is refused with a
// 413 and a JSON error, not read without bound.
func TestBatchBodyLimit(t *testing.T) {
	_, _, ts := newTestHandler(t)
	body := `{"ranges":[` + strings.Repeat("[0,1],", MaxBatchBytes/6) + `[0,1]]}`
	resp, err := http.Post(ts.URL+"/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(out["error"], "exceeds") {
		t.Fatalf("status %d, body %v; want 413 with an error", resp.StatusCode, out)
	}
	// A body just under the cap still answers.
	postJSON(t, ts.URL+"/query/batch", map[string]any{"ranges": [][2]int{{0, 10}}}, http.StatusOK)
}

// TestWriteBodyLimits: oversized /ingest and /load bodies are refused
// with a 413 and a JSON error before anything is applied; /ingest is
// capped at MaxBatchBytes and /load at MaxLoadBytes of the domain.
func TestWriteBodyLimits(t *testing.T) {
	s, _, ts := newTestHandler(t)
	version := s.eng.Version()
	loadCap := int(MaxLoadBytes(s.eng.Domain()))
	for _, tc := range []struct{ path, body string }{
		{"/ingest", strings.Repeat(" ", MaxBatchBytes) + `{"inserts":[{"value":1,"count":1}]}`},
		{"/load", `{"counts":[` + strings.Repeat("0,", loadCap/2) + `0]}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(out["error"], "exceeds") {
			t.Fatalf("%s: status %d, body %v; want 413 with an error", tc.path, resp.StatusCode, out)
		}
	}
	if got := s.eng.Version(); got != version {
		t.Fatalf("refused writes moved the data version %d → %d", version, got)
	}
	// Bodies inside the caps still apply.
	postJSON(t, ts.URL+"/ingest", map[string]any{"inserts": []map[string]int{{"value": 1, "count": 1}}}, http.StatusOK)
	postJSON(t, ts.URL+"/load", map[string]any{"counts": make([]int64, 64)}, http.StatusOK)
}

// TestBatchNonFiniteAnswer: an answer JSON cannot carry fails the
// request with a 500 and a JSON error before any header is written —
// not a 200 with an empty body the router would mistake for a transient
// decode failure.
func TestBatchNonFiniteAnswer(t *testing.T) {
	s, _, ts := newTestHandler(t)
	shard, err := build.Build(make([]int64, 64), build.Options{Method: method.EquiDepth, BudgetWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	avg := shard.(*histogram.Avg)
	nan := make([]float64, len(avg.Values))
	for i := range nan {
		nan[i] = math.NaN()
	}
	if err := avg.SetValues(nan); err != nil {
		t.Fatal(err)
	}
	if err := s.MergeSynopsis("h", shard); err != nil {
		t.Fatal(err)
	}
	raw := postJSONRaw(t, ts.URL+"/query/batch", `{"synopsis":"h","ranges":[[0,10]]}`, http.StatusInternalServerError)
	var out map[string]string
	if err := json.Unmarshal(raw, &out); err != nil || !strings.Contains(out["error"], "NaN") {
		t.Fatalf("500 body %q (%v), want a JSON error naming NaN", raw, err)
	}
	getJSON(t, ts.URL+"/query?syn=h&a=0&b=10", http.StatusInternalServerError)
}

// TestQueryWireHandlerBytes checks the served bytes end to end: each hot
// response is exactly encoding/json's rendering of what it decodes to.
func TestQueryWireHandlerBytes(t *testing.T) {
	_, _, ts := newTestHandler(t)
	check := func(raw []byte) {
		t.Helper()
		var v map[string]any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		want, _ := jsonEncode(v)
		if !bytes.Equal(raw, want) {
			t.Fatalf("served %q\nencoding/json %q", raw, want)
		}
	}
	for _, q := range []string{"syn=h&a=0&b=63", "a=3&b=40&maxerr=0", "a=3&b=40", "syn=h&a=5&b=9&maxerr=1e9"} {
		resp, err := http.Get(ts.URL + "/query?" + q)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := ReadBody(nil, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", q, resp.StatusCode, err)
		}
		check(raw)
	}
	for _, body := range []string{
		`{"synopsis":"h","ranges":[[0,63],[10,20],[70,80]]}`,
		`{"ranges":[[0,63],[10,20]],"maxerr":0.5}`,
		`{"ranges":[]}`,
	} {
		check(postJSONRaw(t, ts.URL+"/query/batch", body, http.StatusOK))
	}
}

func TestGrowElemMatchesReflect(t *testing.T) {
	// encoding/json grows a slice with reflect.Value.Grow, which keeps
	// the bytes between length and capacity; growElem must too.
	var v [][2]int
	if err := json.Unmarshal([]byte(`[[1,2],[3,4],[5,6]]`), &v); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`[[9,9]]`), &v); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`[[0,0],null,null]`), &v); err != nil {
		t.Fatal(err)
	}
	var r BatchRequest
	if err := r.Decode([]byte(`{"ranges":[[1,2],[3,4],[5,6]],"ranges":[[9,9]],"ranges":[[0,0],null,null]}`)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Ranges, v) {
		t.Fatalf("codec %v, encoding/json %v", r.Ranges, v)
	}
}
