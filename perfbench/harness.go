package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/obs/logx"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/wal"
)

// bench is one in-process workbench service: a fresh data directory with
// real fsync, the server on a loopback listener, and the obs registry it
// reports into.
type bench struct {
	srv       *server.Server
	reg       *obs.Registry
	hs        *http.Server
	served    chan error
	addr      string
	dir       string
	transport *http.Transport
	// timer wraps the handler in traced runs (nil otherwise).
	timer *handlerTimer
}

// startBench opens a server on a new data directory under root.
func startBench(root string, traced bool) (*bench, error) {
	dir, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		DataDir:     dir,
		Metrics:     reg,
		Parallelism: 0,
		SlowRequest: -1,
		Log:         logx.Discard(),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	b := &bench{
		srv: srv, reg: reg, dir: dir, addr: ln.Addr().String(),
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}
	var h http.Handler = srv.Handler()
	if traced {
		b.timer = &handlerTimer{next: h, seen: map[string]handled{}}
		h = b.timer
	}
	b.hs = &http.Server{Handler: h}
	go func() { b.served <- b.hs.Serve(ln) }()
	return b, nil
}

// newClient returns a client of b with its own session.
func (b *bench) newClient(name string) (*benchClient, error) {
	c := client.New(b.addr)
	c.SetHTTPClient(&http.Client{Transport: b.transport})
	if _, err := c.OpenSession(name); err != nil {
		return nil, err
	}
	return &benchClient{Client: c, b: b, lat: map[string][]float64{}}, nil
}

// close stops the listener, waits for the serve loop, folds the WAL and
// removes the data directory.
func (b *bench) close() error {
	b.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := b.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// checkDurability copies the data directory, recovers every workspace
// partition from the copy, and requires each recovered graph to equal
// the live blackboard: every acknowledged write is on disk. Call it with
// no request in flight.
func (b *bench) checkDurability() (int, error) {
	copyDir := b.dir + "-copy"
	defer os.RemoveAll(copyDir)
	if err := copyTree(b.dir, copyDir); err != nil {
		return 0, fmt.Errorf("durability: copy: %w", err)
	}
	triples := 0
	for _, name := range b.srv.Workspaces().Names() {
		ws, _ := b.srv.Workspaces().Get(name)
		g, _, err := wal.Recover(filepath.Join(copyDir, "ws", name))
		if err != nil {
			return 0, fmt.Errorf("durability: recover %s: %w", name, err)
		}
		if !rdf.Equal(g, ws.Blackboard().Graph()) {
			return 0, fmt.Errorf("durability: workspace %s: recovered graph (%d triples) differs from the live blackboard (%d)",
				name, g.Len(), ws.Blackboard().Graph().Len())
		}
		triples += g.Len()
	}
	return triples, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// benchClient is one closed-loop client: a workbench client plus the
// round-trip samples of its requests, by request kind.
type benchClient struct {
	*client.Client
	b   *bench
	lat map[string][]float64
	// trace accumulates layer timings while a traced phase runs.
	trace *layerAcc
}

// call runs one request of the given kind and records its round trip.
// In a traced phase it then attributes the request's trace to layers.
func (bc *benchClient) call(kind string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	bc.lat[kind] = append(bc.lat[kind], msOf(d))
	if bc.trace != nil {
		return bc.trace.observe(bc, d)
	}
	return nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseResult summarises one timed phase.
type phaseResult struct {
	attempted, failed int
	elapsed           time.Duration
	errs              []string
	// next holds each client's next op index.
	next []int
}

// errExhausted ends a client's loop when its pre-generated op stream
// runs out.
var errExhausted = errors.New("op stream exhausted")

// probe reads the state once, when the phase's clients have completed
// ops ops between them. No op is in flight while fn runs, and the
// phase's clock stands still.
type probe struct {
	ops int
	fn  func()
	ran bool // fn ran inside the phase
}

// runPhase drives every client in a closed loop — each sends its next op
// only after the previous one returned — until d has elapsed. start
// gives each client's first op index, so a second phase continues the
// same streams. pr may be nil.
func runPhase(cs []*benchClient, start []int, d time.Duration, op func(bc *benchClient, client, i int) error, pr *probe) phaseResult {
	res := phaseResult{next: append([]int(nil), start...)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var gate sync.RWMutex // ops share it; the probe holds it alone
	var completed, paused atomic.Int64
	t0 := time.Now()
	deadline := func() time.Time { return t0.Add(d + time.Duration(paused.Load())) }
	for ci, bc := range cs {
		wg.Add(1)
		go func(ci int, bc *benchClient) {
			defer wg.Done()
			i := start[ci]
			attempted, failed := 0, 0
			var errs []string
			for time.Now().Before(deadline()) {
				gate.RLock()
				err := op(bc, ci, i)
				gate.RUnlock()
				if errors.Is(err, errExhausted) {
					break
				}
				attempted++
				i++
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, err.Error())
					}
				}
				if pr != nil && completed.Add(1) == int64(pr.ops) {
					gate.Lock()
					p0 := time.Now()
					pr.fn()
					pr.ran = true
					paused.Add(int64(time.Since(p0)))
					gate.Unlock()
				}
			}
			mu.Lock()
			res.attempted += attempted
			res.failed += failed
			res.errs = append(res.errs, errs...)
			res.next[ci] = i
			mu.Unlock()
		}(ci, bc)
	}
	wg.Wait()
	res.elapsed = time.Since(t0) - time.Duration(paused.Load())
	return res
}

// handled is one request's handler time and response size.
type handled struct {
	dur   time.Duration
	bytes int64
}

// handlerTimer wraps Server.Handler() and records, per trace ID, how
// long the handler ran and how many bytes it wrote. The client's round
// trip minus this is the transport cost.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	seen map[string]handled
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sc, traced := obs.ParseTraceHeader(r.Header.Get(server.TraceHeader))
	if !traced || strings.HasPrefix(r.URL.Path, "/debug/") {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	h.next.ServeHTTP(cw, r)
	d := time.Since(t0)
	h.mu.Lock()
	h.seen[sc.Trace.String()] = handled{dur: d, bytes: cw.n}
	h.mu.Unlock()
}

// take returns and forgets the record of one trace.
func (h *handlerTimer) take(trace string) (handled, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rec, ok := h.seen[trace]
	delete(h.seen, trace)
	return rec, ok
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// walMeter counts the WAL bytes the default workspace appends, reading
// every committed frame from the store's ship ring. It polls, because
// the ring holds only the most recent transactions.
type walMeter struct {
	store *wal.Store
	first uint64
	stop  chan struct{}
	done  chan struct{}

	mu     sync.Mutex
	cursor uint64
	bytes  int64
	err    error
}

// walPollEvery bounds the transactions that can commit between polls
// well below the ship ring's capacity (wal.DefaultReplBufferTxns).
const walPollEvery = 50 * time.Millisecond

func startWALMeter(b *bench) *walMeter {
	m := &walMeter{store: b.srv.Store(), stop: make(chan struct{}), done: make(chan struct{})}
	m.first = m.store.LastTxn()
	m.cursor = m.first
	go func() {
		defer close(m.done)
		t := time.NewTicker(walPollEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.poll()
			}
		}
	}()
	return m
}

func (m *walMeter) poll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	data, n, last, ok := m.store.FramesSince(m.cursor, 0)
	if !ok || uint64(n) != last-m.cursor {
		m.err = fmt.Errorf("wal meter: fell behind the ship ring at txn %d (last %d)", m.cursor, last)
		return
	}
	m.bytes += int64(len(data))
	m.cursor = last
}

// finish stops the poller and returns the WAL bytes and transactions
// committed since the meter started.
func (m *walMeter) finish() (bytes int64, txns uint64, err error) {
	close(m.stop)
	<-m.done
	m.poll()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes, m.cursor - m.first, m.err
}

// snapshotBytes is the size of the snapshot the default workspace would
// write now: its graph in N-Triples.
func (b *bench) snapshotBytes() (int64, error) {
	var n byteCounter
	err := rdf.WriteNTriples(&n, b.srv.Workspaces().Default().Blackboard().Graph())
	return int64(n), err
}

type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// metricSum sums a registry family over all its series: counter and
// gauge values, or a histogram's observation count.
func metricSum(reg *obs.Registry, name string) float64 {
	m, ok := reg.Find(name)
	if !ok {
		return 0
	}
	var s float64
	for _, se := range m.Series {
		if m.Type == obs.TypeHistogram {
			s += float64(se.Count)
		} else {
			s += se.Value
		}
	}
	return s
}
