package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/rdf"
	"repro/internal/wal"
)

// ErrSnapshotNeeded reports that the primary's retained WAL segments no
// longer reach the follower's cursor (HTTP 410): the follower must
// bootstrap from a full snapshot before tailing again.
var ErrSnapshotNeeded = errors.New("repl: primary log no longer reaches the cursor; snapshot bootstrap required")

// FencedError reports that the remote refused the request on epoch
// grounds (HTTP 409): either our claim is stale (a newer primary
// exists) or the remote itself is sealed.
type FencedError struct {
	Msg string
}

func (e *FencedError) Error() string { return "repl: fenced: " + e.Msg }

// LogBatch is one successful /v1/repl/log response: zero or more sealed
// transaction frames, plus the primary's epoch and last committed txn.
type LogBatch struct {
	Frames []wal.TxnFrame
	Epoch  uint64
	Last   uint64
}

// Fetcher speaks the follower side of the replication protocol against
// one primary. It is stateless beyond the base URL and the epoch claim
// callback; the Tailer owns retry/bootstrap policy.
type Fetcher struct {
	base   string
	prefix string // "/v1/workspaces/<ws>" for a non-default partition
	http   *http.Client
	epoch  func() uint64
}

// NewFetcher returns a Fetcher for the primary at base (scheme added
// when missing). epoch supplies the local fencing-epoch claim attached
// to every request; nil claims nothing.
func NewFetcher(base string, epoch func() uint64) *Fetcher {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if epoch == nil {
		epoch = func() uint64 { return 0 }
	}
	return &Fetcher{base: base, http: &http.Client{}, epoch: epoch}
}

// BaseURL returns the normalized primary address.
func (f *Fetcher) BaseURL() string { return f.base }

// ForWorkspace returns a Fetcher whose log and snapshot paths address
// one workspace partition on the primary. The default workspace (and
// "") keeps the bare node-level paths, so a multi-tenant follower can
// tail a pre-workspace primary. Fencing stays node-level either way.
func (f *Fetcher) ForWorkspace(ws string) *Fetcher {
	nf := *f
	if ws == "" || ws == "default" {
		nf.prefix = ""
	} else {
		nf.prefix = "/v1/workspaces/" + ws
	}
	return &nf
}

// path scopes a protocol path to the fetcher's workspace partition.
func (f *Fetcher) path(p string) string {
	if f.prefix == "" {
		return p
	}
	return f.prefix + strings.TrimPrefix(p, "/v1")
}

// SetHTTPClient swaps the underlying http.Client (tests, timeouts).
func (f *Fetcher) SetHTTPClient(hc *http.Client) { f.http = hc }

// get performs one replication GET, mapping the protocol status codes:
// 410 → ErrSnapshotNeeded, 409 → FencedError. The caller owns resp.Body
// on a nil error.
func (f *Fetcher) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(f.epoch(), 10))
	resp, err := f.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	msg := readErrorBody(resp)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusGone:
		return nil, fmt.Errorf("%w (%s)", ErrSnapshotNeeded, msg)
	case http.StatusConflict:
		return nil, &FencedError{Msg: msg}
	default:
		return nil, fmt.Errorf("repl: %s: http %d: %s", path, resp.StatusCode, msg)
	}
}

// readErrorBody extracts the server's uniform {"error": ...} shape,
// falling back to the raw body.
func readErrorBody(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// parseUintHeader reads a required numeric response header.
func parseUintHeader(resp *http.Response, name string) (uint64, error) {
	v := resp.Header.Get(name)
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: bad %s header %q", name, v)
	}
	return n, nil
}

// FetchLog long-polls the primary for sealed txn frames after cursor
// `after`, waiting up to timeout server-side. An empty batch (timeout
// with no new txns) is a normal, nil-error result.
func (f *Fetcher) FetchLog(ctx context.Context, after uint64, timeout time.Duration) (*LogBatch, error) {
	path := fmt.Sprintf("%s?after=%d&timeout=%s", f.path(LogPath), after, timeout)
	resp, err := f.get(ctx, path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	epoch, err := parseUintHeader(resp, EpochHeader)
	if err != nil {
		return nil, err
	}
	last, err := parseUintHeader(resp, LastTxnHeader)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("repl: reading log body: %w", err)
	}
	frames, err := wal.DecodeTxnFrames(data)
	if err != nil {
		return nil, err
	}
	return &LogBatch{Frames: frames, Epoch: epoch, Last: last}, nil
}

// FetchSnapshot downloads the primary's full graph for bootstrap,
// returning the graph, the txn id it corresponds to, and the primary's
// epoch.
func (f *Fetcher) FetchSnapshot(ctx context.Context) (*rdf.Graph, uint64, uint64, error) {
	resp, err := f.get(ctx, f.path(SnapshotPath))
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	epoch, err := parseUintHeader(resp, EpochHeader)
	if err != nil {
		return nil, 0, 0, err
	}
	txn, err := parseUintHeader(resp, SnapshotTxnHeader)
	if err != nil {
		return nil, 0, 0, err
	}
	g, err := rdf.ReadNTriples(resp.Body)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("repl: snapshot body: %w", err)
	}
	return g, txn, epoch, nil
}

// Fence tells the remote that epoch now exists (POST /v1/repl/fence).
// Used best-effort at promotion to seal a surviving old primary.
func (f *Fetcher) Fence(ctx context.Context, epoch uint64) error {
	body := strings.NewReader(fmt.Sprintf(`{"epoch":%d}`, epoch))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+FencePath, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(EpochHeader, strconv.FormatUint(f.epoch(), 10))
	resp, err := f.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: fence: http %d: %s", resp.StatusCode, readErrorBody(resp))
	}
	return nil
}
