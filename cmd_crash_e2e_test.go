package rangeagg_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
)

// TestSynserveCrashRecovery is the durability e2e: synserve runs with a
// data directory and -fsync always, takes sequential acknowledged
// ingests, and is SIGKILLed mid-stream. A restart on the same directory
// must recover every acknowledged mutation (plus at most the one that
// was in flight when the kill landed), answer exact range counts
// identically to a never-crashed reference engine fed the same prefix,
// and serve synopsis answers matching a reference build over the
// recovered counts.
func TestSynserveCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	const domain = 64
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")

	// A real binary (not `go run`) so SIGKILL hits the server itself.
	bin := filepath.Join(dir, "synserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/synserve").CombinedOutput(); err != nil {
		t.Fatalf("building synserve: %v\n%s", err, out)
	}
	start := func() (*exec.Cmd, string, *bufio.Scanner) {
		cmd := exec.Command(bin,
			"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-domain", fmt.Sprint(domain),
			"-fsync", "always", "-syn", "h:V-OPT:32", "-debounce", "5ms")
		cmd.Dir = "."
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
			_, _ = cmd.Process.Wait()
		})
		sc := bufio.NewScanner(stderr)
		var addr string
		var tail []string
		for sc.Scan() {
			line := sc.Text()
			tail = append(tail, line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr = strings.Fields(line[i+len("listening on "):])[0]
				break
			}
		}
		if addr == "" {
			t.Fatalf("no listen line; stderr: %s", strings.Join(tail, "\n"))
		}
		return cmd, "http://" + addr, sc
	}

	cmd, base, _ := start()

	// opAt returns the i-th mutation of the deterministic ingest stream.
	opAt := func(i int) (value int, count int64) {
		return (i * 13) % domain, int64(1 + i%3)
	}
	ingest := func(base string, i int) error {
		v, c := opAt(i)
		body, _ := json.Marshal(map[string]any{
			"inserts": []map[string]any{{"value": v, "count": c}},
		})
		resp, err := http.Post(base+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ingest %d: status %d", i, resp.StatusCode)
		}
		return nil
	}

	// Sequential acknowledged ingests until the SIGKILL lands: at most
	// one op can be in flight, so recovery holds acked or acked+1 ops.
	acked := 0
	killed := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		close(killed)
	}()
	for {
		if err := ingest(base, acked); err != nil {
			break // the kill landed mid-request
		}
		acked++
		if acked >= 5000 { // the kill somehow missed; still a valid run
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
			break
		}
	}
	<-killed
	_, _ = cmd.Process.Wait()
	if acked == 0 {
		t.Fatal("no ingest was acknowledged before the kill")
	}

	// Restart on the same directory.
	cmd2, base2, sc2 := start()
	drain := make(chan string, 1)
	go func() {
		var rest []string
		for sc2.Scan() {
			rest = append(rest, sc2.Text())
		}
		drain <- strings.Join(rest, "\n")
	}()

	var health struct {
		Records  int64    `json:"records"`
		Synopses []string `json:"synopses"`
	}
	httpGetJSON(t, base2+"/health", &health)

	// Determine how many ops the recovered state holds: acked or acked+1.
	ref, err := engine.New("ref", domain)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < acked; i++ {
		v, c := opAt(i)
		if err := ref.Insert(v, c); err != nil {
			t.Fatal(err)
		}
	}
	recovered := acked
	if health.Records != ref.Records() {
		v, c := opAt(acked)
		if err := ref.Insert(v, c); err != nil {
			t.Fatal(err)
		}
		recovered = acked + 1
		if health.Records != ref.Records() {
			t.Fatalf("recovered %d records; acked %d ops (want the %d- or %d-op state)",
				health.Records, acked, acked, acked+1)
		}
	}
	t.Logf("acked %d ops, recovered the %d-op state", acked, recovered)

	// Exact range counts must match the reference bit-for-bit.
	for _, rg := range [][2]int{{0, domain - 1}, {0, 13}, {7, 7}, {20, 55}, {50, 63}} {
		var q struct {
			Value float64 `json:"value"`
		}
		httpGetJSON(t, fmt.Sprintf("%s/query?a=%d&b=%d", base2, rg[0], rg[1]), &q)
		if int64(q.Value) != ref.ExactCount(rg[0], rg[1]) {
			t.Errorf("exact count [%d,%d] = %g, reference %d", rg[0], rg[1], q.Value, ref.ExactCount(rg[0], rg[1]))
		}
	}

	// Synopsis answers must match a reference build on the same counts
	// (the construction is deterministic).
	if _, err := ref.BuildSynopsis("h", engine.Count, build.Options{Method: method.VOptimal, BudgetWords: 32}); err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]int{{0, domain - 1}, {5, 40}, {32, 33}} {
		var q struct {
			Value float64 `json:"value"`
		}
		httpGetJSON(t, fmt.Sprintf("%s/query?syn=h&a=%d&b=%d", base2, rg[0], rg[1]), &q)
		want, err := ref.Approx("h", rg[0], rg[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q.Value-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("synopsis answer [%d,%d] = %v, reference %v", rg[0], rg[1], q.Value, want)
		}
	}

	// Durability gauges report the recovery.
	var metrics struct {
		Durability struct {
			Replayed int64 `json:"replayed_records"`
			Appends  int64 `json:"wal_appends"`
		} `json:"durability"`
	}
	httpGetJSON(t, base2+"/metrics", &metrics)
	if metrics.Durability.Replayed != int64(recovered) {
		t.Errorf("replayed_records = %d, want %d", metrics.Durability.Replayed, recovered)
	}

	// Graceful shutdown writes a final checkpoint; a third boot must then
	// recover replay-free with the same record count.
	if err := syscall.Kill(-cmd2.Process.Pid, syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan error, 1)
	go func() { _, err := cmd2.Process.Wait(); waitCh <- err }()
	select {
	case <-waitCh:
	case <-time.After(30 * time.Second):
		t.Fatal("synserve did not exit after SIGINT")
	}
	if rest := <-drain; !strings.Contains(rest, "shutdown complete") {
		t.Errorf("no graceful-shutdown line; stderr tail: %s", rest)
	}

	_, base3, _ := start()
	httpGetJSON(t, base3+"/metrics", &metrics)
	if metrics.Durability.Replayed != 0 {
		t.Errorf("post-checkpoint boot replayed %d records, want 0", metrics.Durability.Replayed)
	}
	var health3 struct {
		Records int64 `json:"records"`
	}
	httpGetJSON(t, base3+"/health", &health3)
	if health3.Records != ref.Records() {
		t.Errorf("third boot holds %d records, want %d", health3.Records, ref.Records())
	}
}
