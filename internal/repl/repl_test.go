package repl

// Unit tests of the protocol pieces: epoch comparison and header
// parsing (the fencing edge cases), and the Fetcher's mapping of the
// wire status codes onto the sentinel errors the Tailer's policy keys
// off (410 → bootstrap, 409 → fenced).

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/wal"
)

func TestCompareEpoch(t *testing.T) {
	cases := []struct {
		name          string
		local, remote uint64
		want          Outcome
	}{
		{"both zero", 0, 0, EpochEqual},
		{"equal", 7, 7, EpochEqual},
		{"remote behind by one", 7, 6, RemoteBehind},
		{"remote far behind", 7, 0, RemoteBehind},
		{"remote ahead by one", 7, 8, RemoteAhead},
		{"remote far ahead", 0, 1<<63 + 1, RemoteAhead},
		{"max equal", ^uint64(0), ^uint64(0), EpochEqual},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CompareEpoch(tc.local, tc.remote); got != tc.want {
				t.Fatalf("CompareEpoch(%d, %d) = %s, want %s", tc.local, tc.remote, got, tc.want)
			}
		})
	}
}

func TestParseEpochHeader(t *testing.T) {
	cases := []struct {
		h    string
		want uint64
		ok   bool
	}{
		{"", 0, true}, // absent header = legitimate non-claim
		{"0", 0, true},
		{"7", 7, true},
		{"18446744073709551615", ^uint64(0), true},
		{"18446744073709551616", 0, false}, // uint64 overflow
		{"-1", 0, false},
		{"1.5", 0, false},
		{"banana", 0, false},
		{" 1", 0, false}, // no whitespace tolerance: headers are machine-set
	}
	for _, tc := range cases {
		e, ok := ParseEpochHeader(tc.h)
		if e != tc.want || ok != tc.ok {
			t.Errorf("ParseEpochHeader(%q) = %d, %v; want %d, %v", tc.h, e, ok, tc.want, tc.ok)
		}
	}
}

// replHandler fakes a primary's /v1/repl/log endpoint with a fixed
// status and body.
func replHandler(status int, body string, hdr map[string]string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, v := range hdr {
			w.Header().Set(k, v)
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	})
}

func TestFetcherMapsProtocolStatuses(t *testing.T) {
	ctx := context.Background()

	// 410 Gone → ErrSnapshotNeeded, carrying the server's message.
	ts := httptest.NewServer(replHandler(http.StatusGone, `{"error":"bootstrap me"}`, nil))
	defer ts.Close()
	f := NewFetcher(ts.URL, nil)
	_, err := f.FetchLog(ctx, 0, time.Second)
	if !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("410 mapped to %v, want ErrSnapshotNeeded", err)
	}

	// 409 Conflict → *FencedError.
	ts409 := httptest.NewServer(replHandler(http.StatusConflict, `{"error":"stale epoch 1 (current 2)"}`, nil))
	defer ts409.Close()
	_, err = NewFetcher(ts409.URL, nil).FetchLog(ctx, 0, time.Second)
	var fe *FencedError
	if !errors.As(err, &fe) {
		t.Fatalf("409 mapped to %v, want FencedError", err)
	}
	if fe.Msg != "stale epoch 1 (current 2)" {
		t.Fatalf("fenced message = %q", fe.Msg)
	}

	// Other statuses are plain errors, neither sentinel.
	ts500 := httptest.NewServer(replHandler(http.StatusInternalServerError, "boom", nil))
	defer ts500.Close()
	_, err = NewFetcher(ts500.URL, nil).FetchLog(ctx, 0, time.Second)
	if err == nil || errors.Is(err, ErrSnapshotNeeded) || errors.As(err, &fe) {
		t.Fatalf("500 mapped to %v", err)
	}

	// A 200 without the required headers is rejected, not treated as an
	// empty batch.
	tsNoHdr := httptest.NewServer(replHandler(http.StatusOK, "", nil))
	defer tsNoHdr.Close()
	if _, err := NewFetcher(tsNoHdr.URL, nil).FetchLog(ctx, 0, time.Second); err == nil {
		t.Fatal("missing epoch/last-txn headers accepted")
	}
}

func TestFetcherDecodesShippedFrames(t *testing.T) {
	// A wire-faithful 200: headers plus two encoded txn batches.
	body := append(wal.EncodeTxn(1, nil), wal.EncodeTxn(2, nil)...)
	ts := httptest.NewServer(replHandler(http.StatusOK, string(body), map[string]string{
		EpochHeader:   "3",
		LastTxnHeader: "2",
	}))
	defer ts.Close()
	f := NewFetcher(ts.URL, func() uint64 { return 3 })
	batch, err := f.FetchLog(context.Background(), 0, time.Second)
	if err != nil {
		t.Fatalf("FetchLog: %v", err)
	}
	if batch.Epoch != 3 || batch.Last != 2 || len(batch.Frames) != 2 {
		t.Fatalf("batch = epoch %d last %d frames %d", batch.Epoch, batch.Last, len(batch.Frames))
	}
	if batch.Frames[0].Txn != 1 || batch.Frames[1].Txn != 2 {
		t.Fatalf("frame txns = %d, %d", batch.Frames[0].Txn, batch.Frames[1].Txn)
	}

	// A corrupted body is an error, not a silently-shorter batch.
	bad := append([]byte{}, body...)
	bad[len(bad)-1] ^= 0xff
	tsBad := httptest.NewServer(replHandler(http.StatusOK, string(bad), map[string]string{
		EpochHeader:   "3",
		LastTxnHeader: "2",
	}))
	defer tsBad.Close()
	if _, err := NewFetcher(tsBad.URL, nil).FetchLog(context.Background(), 0, time.Second); err == nil {
		t.Fatal("corrupt body accepted")
	}
}

func TestFetcherSendsEpochClaim(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(EpochHeader)
		w.Header().Set(EpochHeader, "5")
		w.Header().Set(LastTxnHeader, "0")
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	f := NewFetcher(ts.URL, func() uint64 { return 5 })
	if _, err := f.FetchLog(context.Background(), 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if got != "5" {
		t.Fatalf("epoch claim on the wire = %q, want 5", got)
	}
	// A nil epoch func claims 0 ("no claim"), still a well-formed header.
	if _, err := NewFetcher(ts.URL, nil).FetchLog(context.Background(), 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if e, err := strconv.ParseUint(got, 10, 64); err != nil || e != 0 {
		t.Fatalf("nil epoch func sent %q", got)
	}
}

// healthProbe is an Applier that records what Tailer.Healthy reports
// while a shipped transaction is being applied.
type healthProbe struct {
	tail    *Tailer
	applied uint64
	healthy []bool
}

func (p *healthProbe) LastApplied() uint64 { return p.applied }
func (p *healthProbe) ApplyTxn(txn uint64, _ []rdf.ChangeOp) error {
	p.healthy = append(p.healthy, p.tail.Healthy())
	p.applied = txn
	return nil
}
func (p *healthProbe) Bootstrap(*rdf.Graph, uint64) error { return nil }
func (p *healthProbe) ObserveEpoch(uint64) error          { return nil }

// TestTailerHealthyWhileApplying: a freshly started tail reports
// healthy as soon as the primary has answered, not only once the batch
// it answered with is applied.
func TestTailerHealthyWhileApplying(t *testing.T) {
	ts := httptest.NewServer(replHandler(http.StatusOK, string(wal.EncodeTxn(1, nil)), map[string]string{
		EpochHeader:   "0",
		LastTxnHeader: "1",
	}))
	defer ts.Close()
	probe := &healthProbe{}
	probe.tail = NewTailer(Config{Primary: ts.URL, Apply: probe, Metrics: obs.NewRegistry(), PollTimeout: time.Second})
	if probe.tail.Healthy() {
		t.Fatal("healthy before any contact")
	}
	if err := probe.tail.step(context.Background()); err != nil {
		t.Fatalf("step: %v", err)
	}
	if len(probe.healthy) != 1 || !probe.healthy[0] {
		t.Fatalf("Healthy during the apply = %v; want [true]", probe.healthy)
	}
	if !probe.tail.Healthy() {
		t.Error("unhealthy after a clean round")
	}
}
