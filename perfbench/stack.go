package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rangeagg/internal/cluster"
	"rangeagg/internal/engine"
	"rangeagg/internal/ingest"
	"rangeagg/internal/serve"
	"rangeagg/internal/wal"
)

// listener is one loopback HTTP server run the way synserve and
// synrouter run theirs.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		hs:   &http.Server{Handler: h, ReadTimeout: readTimeout, WriteTimeout: writeTimeout},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return l, nil
}

// close closes the listener and every connection at once: the load has
// stopped by then, and a graceful Shutdown would wait out connections a
// client transport dialed but never used.
func (l *listener) close() {
	_ = l.hs.Close() // the only error is the listener's own close error
	<-l.done
}

// node is one synserve-equivalent: engine (WAL-backed when durable),
// serve.Server, and its handler on a loopback listener.
type node struct {
	id      string
	window  [2]int // owned values (the whole domain when standalone)
	eng     *engine.Engine
	srv     *serve.Server
	db      *wal.DB
	handler http.Handler // the unwrapped serve handler
	l       *listener
}

// stack is one workload's serving stack. url is where clients send
// requests: the router when there is one, else the single node.
type stack struct {
	nodes  []*node
	router *cluster.Router
	rl     *listener
	url    string
	// walOpen is how long wal.Open took (durable stacks).
	walOpen time.Duration
}

// wrapFunc lets the traced run put its own handler around each handler
// the stack constructs; role is "serve" for a node, "cluster" for the
// router.
type wrapFunc func(role string, n *node, h http.Handler) http.Handler

// buildStack constructs the workload's stack over counts with the
// constructors cmd/synserve and cmd/synrouter use. dir holds WAL data.
func buildStack(w *workload, counts []int64, dir string, wrap wrapFunc) (st *stack, err error) {
	specs, err := w.specs()
	if err != nil {
		return nil, err
	}
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	cfg := serve.Config{Debounce: debounce, MaxLag: maxLag}
	if w.incremental {
		cfg.Ingest = ingest.Config{Mode: ingest.ModeIncremental}
	}
	k := w.nodes
	if k == 0 {
		k = 1
	}
	n := len(counts)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k-1
		nd := &node{id: fmt.Sprintf("n%d", i), window: [2]int{lo, hi}}
		st.nodes = append(st.nodes, nd)
		owned := counts
		if k > 1 {
			// A segment-owning node runs a full-domain engine zeroed
			// outside its window, so every coordinate stays global.
			owned = make([]int64, n)
			copy(owned[lo:hi+1], counts[lo:hi+1])
		}
		var eng *engine.Engine
		ncfg := cfg
		ncfg.NodeID = nd.id
		if w.durable {
			t := time.Now()
			db, rec, err := wal.Open(filepath.Join(dir, nd.id), wal.Options{
				Name: "synserve", Domain: n, Fsync: wal.FsyncAlways, CheckpointEvery: ckptEvery,
			})
			if err != nil {
				return st, err
			}
			st.walOpen += time.Since(t)
			nd.db = db
			if !rec.Fresh {
				return st, fmt.Errorf("WAL directory %s is not fresh", dir)
			}
			if err := db.Load(owned); err != nil {
				return st, err
			}
			eng = db.Engine()
			ncfg.WAL = db
		} else {
			if eng, err = engine.New("synserve", n); err != nil {
				return st, err
			}
			if err := eng.Load(owned); err != nil {
				return st, err
			}
		}
		nd.eng = eng
		if nd.srv, err = serve.New(eng, specs, ncfg); err != nil {
			return st, err
		}
		nd.handler = serve.NewHandler(nd.srv, serve.NewMetrics())
		h := nd.handler
		if wrap != nil {
			h = wrap("serve", nd, h)
		}
		if nd.l, err = listen(h); err != nil {
			return st, err
		}
	}
	if w.nodes == 0 {
		st.url = st.nodes[0].l.url
		return st, nil
	}
	type nodeJSON struct {
		ID     string `json:"id"`
		Addr   string `json:"addr"`
		Window [2]int `json:"window"`
	}
	topoNodes := make([]nodeJSON, len(st.nodes))
	for i, nd := range st.nodes {
		topoNodes[i] = nodeJSON{ID: nd.id, Addr: nd.l.url, Window: nd.window}
	}
	raw, err := json.Marshal(map[string]any{"domain": n, "nodes": topoNodes})
	if err != nil {
		return st, err
	}
	topo, err := cluster.Parse(raw)
	if err != nil {
		return st, err
	}
	st.router = cluster.NewRouter(topo, cluster.RouterConfig{})
	st.router.CheckHealth()
	if !st.router.Ready() {
		return st, errors.New("router not ready after a health sweep")
	}
	var h http.Handler = cluster.NewHandler(st.router, serve.NewMetrics())
	if wrap != nil {
		h = wrap("cluster", nil, h)
	}
	if st.rl, err = listen(h); err != nil {
		return st, err
	}
	st.url = st.rl.url
	return st, nil
}

// close stops listeners, router, servers and logs, in that order.
func (st *stack) close() {
	if st.rl != nil {
		st.rl.close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, nd := range st.nodes {
		if nd.l != nil {
			nd.l.close()
		}
		if nd.srv != nil {
			nd.srv.Close()
		}
		if nd.db != nil {
			if err := nd.db.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: closing WAL:", err)
			}
		}
	}
}
