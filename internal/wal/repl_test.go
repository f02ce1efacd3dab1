package wal

// Tests of the store's replication surface: the durable fencing header
// (epoch + sealed flag), primary-id-preserving appends (AppendTxnAt),
// frames served from the retained log segments (FramesSince/PollFrames),
// and the strict batch decoder followers run on shipped bytes
// (DecodeTxnFrames).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/rdf"
)

func TestHeaderRoundTrip(t *testing.T) {
	s := newStore(t, Options{})
	dir := s.Dir()
	if s.Epoch() != 0 || s.Sealed() {
		t.Fatalf("fresh store: epoch=%d sealed=%v, want 0/unsealed", s.Epoch(), s.Sealed())
	}
	if err := s.SetEpoch(3, true); err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	if s.Epoch() != 3 || !s.Sealed() {
		t.Fatalf("after SetEpoch(3, true): epoch=%d sealed=%v", s.Epoch(), s.Sealed())
	}
	// Moving the fence backwards is refused — a deposed primary must not
	// regain a fresher fence than its deposer.
	if err := s.SetEpoch(2, false); !errors.Is(err, ErrEpochBehind) {
		t.Fatalf("SetEpoch(2) after 3: %v, want ErrEpochBehind", err)
	}
	// Same epoch, clearing the seal (the rejoin-as-replica path) is fine.
	if err := s.SetEpoch(3, false); err != nil {
		t.Fatalf("unseal at same epoch: %v", err)
	}
	s.Close()

	// The header survives a restart via the sidecar file.
	h, err := ReadHeader(dir)
	if err != nil || h.Epoch != 3 || h.Sealed {
		t.Fatalf("ReadHeader = %+v, %v; want epoch 3 unsealed", h, err)
	}
	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Epoch() != 3 || s2.Sealed() {
		t.Fatalf("reopened: epoch=%d sealed=%v", s2.Epoch(), s2.Sealed())
	}
}

func TestHeaderParseRejectsCorruption(t *testing.T) {
	// A corrupt fence must stop the node, not silently reset the epoch.
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"wrong magic", "nope v1 epoch 1 sealed 0 txn 0\n"},
		{"wrong version", "ibwal v2 epoch 1 sealed 0 txn 0\n"},
		{"missing fields", "ibwal v1 epoch 1\n"},
		{"missing txn", "ibwal v1 epoch 1 sealed 0\n"},
		{"extra fields", "ibwal v1 epoch 1 sealed 0 txn 0 junk\n"},
		{"bad epoch", "ibwal v1 epoch banana sealed 0 txn 0\n"},
		{"negative epoch", "ibwal v1 epoch -1 sealed 0 txn 0\n"},
		{"bad sealed", "ibwal v1 epoch 1 sealed maybe txn 0\n"},
		{"bad txn", "ibwal v1 epoch 1 sealed 0 txn banana\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseHeader(tc.text); err == nil {
				t.Fatalf("parseHeader(%q) accepted", tc.text)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, HeaderFile), []byte(tc.text), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{SnapshotEvery: -1}); err == nil {
				t.Fatalf("Open over corrupt header %q succeeded", tc.text)
			}
		})
	}
	// The two legitimate sealed values parse.
	for _, text := range []string{"ibwal v1 epoch 0 sealed 0 txn 0\n", "ibwal v1 epoch 7 sealed 1 txn 42"} {
		if _, err := parseHeader(text); err != nil {
			t.Fatalf("parseHeader(%q): %v", text, err)
		}
	}
}

func TestAppendTxnAtPreservesPrimaryIDs(t *testing.T) {
	s := newStore(t, Options{})
	ctx := context.Background()
	ops := mustOps(t, `<urn:a> <urn:p> <urn:b> .`)
	// A follower applies the primary's txns 5 and 9 — ids with gaps, as
	// after a snapshot-bootstrap at txn 4.
	if err := s.AppendTxnAt(ctx, 5, ops); err != nil {
		t.Fatalf("AppendTxnAt(5): %v", err)
	}
	if err := s.AppendTxnAt(ctx, 9, mustOps(t, `<urn:c> <urn:p> <urn:d> .`)); err != nil {
		t.Fatalf("AppendTxnAt(9): %v", err)
	}
	if s.LastTxn() != 9 {
		t.Fatalf("LastTxn = %d, want 9", s.LastTxn())
	}
	// Replayed or stale ids are refused with the sentinel the replica
	// treats as "already applied".
	for _, txn := range []uint64{9, 5, 1} {
		if err := s.AppendTxnAt(ctx, txn, ops); !errors.Is(err, ErrTxnApplied) {
			t.Fatalf("AppendTxnAt(%d) after 9: %v, want ErrTxnApplied", txn, err)
		}
	}
	// The cursor survives a restart: recovery lands on the primary's ids.
	dir := s.Dir()
	s.Close()
	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LastTxn() != 9 {
		t.Fatalf("LastTxn after reopen = %d, want 9", s2.LastTxn())
	}
	// And a local append continues the primary's id space.
	if err := s2.AppendTxn(nil); err != nil {
		t.Fatal(err)
	}
	if s2.LastTxn() != 10 {
		t.Fatalf("LastTxn after local append = %d, want 10", s2.LastTxn())
	}
}

func TestFramesSinceShipsDecodableBatches(t *testing.T) {
	s := newStore(t, Options{})
	batches := [][]rdf.ChangeOp{
		mustOps(t, `<urn:a> <urn:p> <urn:b> .`),
		mustOps(t, `-<urn:a> <urn:p> <urn:b> .`, `<urn:c> <urn:p> <urn:d> .`),
		mustOps(t, `<urn:e> <urn:p> <urn:f> .`),
	}
	for _, ops := range batches {
		if err := s.AppendTxn(ops); err != nil {
			t.Fatal(err)
		}
	}
	data, n, last, ok := s.FramesSince(0, 100)
	if !ok || n != 3 || last != 3 {
		t.Fatalf("FramesSince(0) = n=%d last=%d ok=%v", n, last, ok)
	}
	frames, err := DecodeTxnFrames(data)
	if err != nil {
		t.Fatalf("DecodeTxnFrames: %v", err)
	}
	if len(frames) != 3 {
		t.Fatalf("decoded %d frames, want 3", len(frames))
	}
	// A follower replaying the frames lands on the same graph a local
	// replay of the ops would.
	want, got := rdf.NewGraph(), rdf.NewGraph()
	for i, fr := range frames {
		if fr.Txn != uint64(i+1) {
			t.Fatalf("frame %d has txn %d", i, fr.Txn)
		}
		want, got = applyOps(want, batches[i]), applyOps(got, fr.Ops)
	}
	if !rdf.Equal(want, got) {
		t.Fatal("shipped ops diverge from the appended ops")
	}

	// Mid-stream cursor: only the tail ships.
	_, n, last, ok = s.FramesSince(2, 100)
	if !ok || n != 1 || last != 3 {
		t.Fatalf("FramesSince(2) = n=%d last=%d ok=%v", n, last, ok)
	}
	// Caught up: empty but ok (long-poll would park).
	data, n, _, ok = s.FramesSince(3, 100)
	if !ok || n != 0 || len(data) != 0 {
		t.Fatalf("FramesSince(3) = n=%d len=%d ok=%v", n, len(data), ok)
	}
	// maxTxns bounds one batch; last still reports the store's head so
	// the follower knows it is not caught up yet.
	data, n, last, ok = s.FramesSince(0, 2)
	if !ok || n != 2 || last != 3 {
		t.Fatalf("FramesSince(0, max 2) = n=%d last=%d ok=%v", n, last, ok)
	}
	if frames, err := DecodeTxnFrames(data); err != nil || len(frames) != 2 || frames[1].Txn != 2 {
		t.Fatalf("bounded batch = %d frames, %v", len(frames), err)
	}
}

// logTxn appends one transaction adding a triple unique to it, and
// records under its id the batch the log must hold for it.
func logTxn(t *testing.T, s *Store, want map[uint64][]byte) {
	t.Helper()
	txn := s.LastTxn() + 1
	ops := mustOps(t, fmt.Sprintf(`<urn:s%d> <urn:p> "txn %d" .`, txn, txn))
	if err := s.AppendTxn(ops); err != nil {
		t.Fatal(err)
	}
	want[txn] = EncodeTxn(txn, ops)
}

// checkFrames requires FramesSince(after, maxTxns) to serve the recorded
// batches of txns after+1..to, byte for byte, with last at head.
func checkFrames(t *testing.T, s *Store, want map[uint64][]byte, after, to uint64, maxTxns int) {
	t.Helper()
	var exp []byte
	for txn := after + 1; txn <= to; txn++ {
		exp = append(exp, want[txn]...)
	}
	data, n, last, ok := s.FramesSince(after, maxTxns)
	if !ok || uint64(n) != to-after || last != s.LastTxn() || !bytes.Equal(data, exp) {
		t.Fatalf("FramesSince(%d, %d) = %d txns, %d bytes, last %d, ok %v; want txns %d..%d, %d bytes, last %d",
			after, maxTxns, n, len(data), last, ok, after+1, to, len(exp), s.LastTxn())
	}
}

// checkBootstrap requires FramesSince(after) to demand a bootstrap.
func checkBootstrap(t *testing.T, s *Store, after uint64) {
	t.Helper()
	if data, n, _, ok := s.FramesSince(after, 0); ok || n != 0 || data != nil {
		t.Fatalf("FramesSince(%d) = %d txns, ok %v; want a bootstrap", after, n, ok)
	}
}

func TestFramesSinceServesRotatedSegments(t *testing.T) {
	s := newStore(t, Options{})
	want := map[uint64][]byte{}
	for i := 0; i < 3; i++ {
		logTxn(t, s, want)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if s.LogSize() != 0 {
		t.Fatalf("live log holds %d bytes after a snapshot", s.LogSize())
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), PrevLogFile)); err != nil {
		t.Fatalf("previous segment: %v", err)
	}
	logTxn(t, s, want)
	logTxn(t, s, want)
	// One rotation: txns 1..3 come from wal.prev, 4..5 from wal.log.
	checkFrames(t, s, want, 0, 5, 0)
	checkFrames(t, s, want, 2, 5, 100)
	checkFrames(t, s, want, 1, 4, 3)
	checkFrames(t, s, want, 3, 5, 0)

	// A second rotation drops the first segment: a cursor behind txn 4
	// must bootstrap.
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	logTxn(t, s, want)
	checkFrames(t, s, want, 3, 6, 0)
	checkFrames(t, s, want, 5, 6, 0)
	checkBootstrap(t, s, 2)
	checkBootstrap(t, s, 0)

	// A snapshot of an empty log keeps the previous segment.
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	checkFrames(t, s, want, 5, 6, 0)
	checkBootstrap(t, s, 4)
}

// TestFramesSinceUnboundedReturnsEveryRetainedFrame: maxTxns ≤ 0 serves
// every retained txn, however many, so a meter that reads the whole
// stream each poll (n == last − cursor) never falls behind.
func TestFramesSinceUnboundedReturnsEveryRetainedFrame(t *testing.T) {
	s := newStore(t, Options{})
	want := map[uint64][]byte{}
	const txns = 1100
	for i := 0; i < txns/2; i++ {
		logTxn(t, s, want)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	for i := txns / 2; i < txns; i++ {
		logTxn(t, s, want)
	}
	checkFrames(t, s, want, 0, txns, 0)
	checkFrames(t, s, want, 0, txns, -1)
	checkFrames(t, s, want, 7, txns, 0)
}

func TestFramesSinceReopenedStoreServesBothSegments(t *testing.T) {
	s := newStore(t, Options{})
	want := map[uint64][]byte{}
	for i := 0; i < 3; i++ {
		logTxn(t, s, want)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	logTxn(t, s, want)
	logTxn(t, s, want)

	// A crash (the store abandoned open): the reopened store indexes
	// wal.prev in one pass and wal.log from its recovery scan.
	s2, err := Open(s.Dir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkFrames(t, s2, want, 0, 5, 0)
	checkFrames(t, s2, want, 2, 5, 0)
	logTxn(t, s2, want)
	checkFrames(t, s2, want, 4, 6, 0)

	// A graceful Close rotates the live log: the next Open serves it
	// from wal.prev, and the segment before it is gone.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(s.Dir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.CommittedTxns != 0 || st.LogBytes != 0 {
		t.Fatalf("recovery replayed the previous segment: %v", st)
	}
	checkFrames(t, s3, want, 3, 6, 0)
	checkBootstrap(t, s3, 2)
	logTxn(t, s3, want)
	checkFrames(t, s3, want, 3, 7, 0)
}

// TestFramesSinceBootstrapsPastDiscardedTxn: a log whose tail holds a
// txn recovery discards (complete frames, no commit record) leaves the
// store's last txn past its newest committed one. Nothing can be served
// for that id, so a follower behind it bootstraps until the next commit.
func TestFramesSinceBootstrapsPastDiscardedTxn(t *testing.T) {
	dir := t.TempDir()
	ops1 := mustOps(t, `<urn:a> <urn:p> <urn:b> .`)
	buf := EncodeTxn(1, ops1)
	buf = appendFrame(buf, Record{Kind: KindBegin, Txn: 2})
	buf = appendFrame(buf, Record{Kind: KindAdd, Txn: 2, Triple: `<urn:x> <urn:p> <urn:y> .`})
	if err := os.WriteFile(filepath.Join(dir, LogFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.LastTxn() != 2 {
		t.Fatalf("LastTxn = %d, want the discarded txn's id 2", s.LastTxn())
	}
	checkBootstrap(t, s, 0)
	checkBootstrap(t, s, 1)
	want := map[uint64][]byte{1: EncodeTxn(1, ops1)}
	logTxn(t, s, want)
	data, n, last, ok := s.FramesSince(0, 0)
	if !ok || n != 2 || last != 3 || !bytes.Equal(data, append(append([]byte{}, want[1]...), want[3]...)) {
		t.Fatalf("FramesSince(0) after txn 3 = %d txns, last %d, ok %v; want txns 1 and 3", n, last, ok)
	}
}

// TestFramesSinceIndexRestartsAtReusedTxnID: a store that survived a
// wal.fsync panic before the cut existed appended its next batch after
// the rolled-back one, under the same txn id. Only the batch that reuses
// the id was ever shipped, so the index restarts there: a follower at
// txn 1 gets it, and one behind it bootstraps rather than receive the
// rolled-back batch.
func TestFramesSinceIndexRestartsAtReusedTxnID(t *testing.T) {
	dir := t.TempDir()
	txn1 := EncodeTxn(1, mustOps(t, `<urn:a> <urn:p> <urn:b> .`))
	rolledBack := EncodeTxn(2, mustOps(t, `<urn:x> <urn:p> <urn:y> .`))
	acked := EncodeTxn(2, mustOps(t, `<urn:c> <urn:p> <urn:d> .`))
	log := append(append(append([]byte{}, txn1...), rolledBack...), acked...)
	if err := os.WriteFile(filepath.Join(dir, LogFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkBootstrap(t, s, 0)
	if data, n, _, ok := s.FramesSince(1, 0); !ok || n != 1 || !bytes.Equal(data, acked) {
		t.Fatalf("FramesSince(1) = %d txns, ok %v; want the acknowledged txn 2", n, ok)
	}
}

// TestFramesSinceDistrustsPrevSegment: Open serves nothing from a
// wal.prev that tears, overlaps the live log or runs past the header's
// mark, since txns between its last good frame and the live log could be
// missing and a follower would skip them.
func TestFramesSinceDistrustsPrevSegment(t *testing.T) {
	ops := func(txn uint64) []rdf.ChangeOp {
		return mustOps(t, fmt.Sprintf(`<urn:s%d> <urn:p> "txn %d" .`, txn, txn))
	}
	batches := func(from, to uint64) []byte {
		var out []byte
		for txn := from; txn <= to; txn++ {
			out = append(out, EncodeTxn(txn, ops(txn))...)
		}
		return out
	}
	clean := batches(1, 3)
	cases := []struct {
		name       string
		prev, live []byte
		mark       uint64
		served     bool
	}{
		{"clean", clean, batches(4, 5), 3, true},
		{"torn", clean[:len(clean)-1], batches(4, 5), 3, false},
		{"overlaps the live log", clean, batches(3, 5), 3, false},
		{"past the header's mark", clean, batches(4, 5), 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, PrevLogFile), tc.prev, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, LogFile), tc.live, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := writeHeader(dir, Header{LastTxn: tc.mark}); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Options{SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			data, n, _, ok := s.FramesSince(1, 0)
			if tc.served {
				if !ok || n != 4 || !bytes.Equal(data, batches(2, 5)) {
					t.Fatalf("FramesSince(1) = %d txns, ok %v; want txns 2..5", n, ok)
				}
				return
			}
			checkBootstrap(t, s, 1)
			if data, n, _, ok := s.FramesSince(4, 0); !ok || n != 1 || !bytes.Equal(data, batches(5, 5)) {
				t.Fatalf("FramesSince(4) = %d txns, ok %v; want txn 5 from the live log", n, ok)
			}
		})
	}
}

// TestFramesSinceOnClosedStoreReadsNothing: deleting a workspace closes
// its store while a follower's poll may still hold it. The poll
// must not read the closed segments: it fails (PollFrames) or demands a
// bootstrap (FramesSince), and a caught-up poll stays caught up.
func TestFramesSinceOnClosedStoreReadsNothing(t *testing.T) {
	s := newStore(t, Options{})
	want := map[uint64][]byte{}
	logTxn(t, s, want)
	logTxn(t, s, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	arm(t, SiteRead, chaos.FaultPanic)
	checkBootstrap(t, s, 0)
	if _, n, _, ok, err := s.PollFrames(context.Background(), 1, time.Millisecond, 0); err == nil || ok || n != 0 {
		t.Fatalf("PollFrames on a closed store = %d txns, ok %v, err %v; want an error", n, ok, err)
	}
	if _, n, last, ok := s.FramesSince(2, 0); !ok || n != 0 || last != 2 {
		t.Fatalf("caught-up FramesSince on a closed store = %d txns, last %d, ok %v", n, last, ok)
	}
	if chaos.Fired(SiteRead) != 0 {
		t.Fatal("a poll read a segment of the closed store")
	}
}

// TestFramesSinceConcurrentWithRotation: followers poll while a writer
// commits and rotates the log. Every poll serves the next txns after
// its cursor, contiguous and byte-identical to what was appended, or
// demands a bootstrap — then the follower resumes from the head, as
// after a snapshot install.
func TestFramesSinceConcurrentWithRotation(t *testing.T) {
	s := newStore(t, Options{})
	ops := func(txn uint64) []rdf.ChangeOp {
		return mustOps(t, fmt.Sprintf(`<urn:s%d> <urn:p> "txn %d" .`, txn, txn))
	}
	const txns = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, n, last, ok := s.FramesSince(cursor, 0)
				if !ok {
					cursor = last
					continue
				}
				var want []byte
				for txn := cursor + 1; txn <= cursor+uint64(n); txn++ {
					want = append(want, EncodeTxn(txn, ops(txn))...)
				}
				if !bytes.Equal(data, want) {
					t.Errorf("FramesSince(%d) served %d txns that differ from the log", cursor, n)
					return
				}
				cursor += uint64(n)
			}
		}()
	}
	for txn := uint64(1); txn <= txns; txn++ {
		if err := s.AppendTxn(ops(txn)); err != nil {
			t.Fatal(err)
		}
		if txn%7 == 0 {
			if err := s.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestWaitFramesWakesOnAppend(t *testing.T) {
	s := newStore(t, Options{})
	if err := s.AppendTxn(nil); err != nil {
		t.Fatal(err)
	}
	// A caught-up poll with a tiny timeout returns empty, not an error.
	start := time.Now()
	_, n, last, ok, err := s.PollFrames(context.Background(), 1, 20*time.Millisecond, 100)
	if err != nil || !ok || n != 0 || last != 1 {
		t.Fatalf("idle PollFrames = n=%d last=%d ok=%v err=%v", n, last, ok, err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("idle poll returned before its timeout")
	}

	// A parked poll wakes when an append lands.
	var wg sync.WaitGroup
	wg.Add(1)
	var gotN int
	var gotOK bool
	var gotErr error
	go func() {
		defer wg.Done()
		_, gotN, _, gotOK, gotErr = s.PollFrames(context.Background(), 1, 5*time.Second, 100)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.AppendTxn(mustOps(t, `<urn:a> <urn:p> <urn:b> .`)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if gotErr != nil || !gotOK || gotN != 1 {
		t.Fatalf("woken PollFrames = n=%d ok=%v err=%v", gotN, gotOK, gotErr)
	}

	// Context cancellation unparks immediately.
	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	var cancelErr error
	go func() {
		defer wg.Done()
		_, _, _, _, cancelErr = s.PollFrames(ctx, 2, time.Minute, 100)
	}()
	cancel()
	wg.Wait()
	if cancelErr != nil {
		t.Fatalf("cancelled PollFrames err = %v", cancelErr)
	}
}

func TestDecodeTxnFramesRejectsMalformedStreams(t *testing.T) {
	// Followers run the strict decoder: anything a healthy primary would
	// never ship — torn tails, stray records, aborts — is a protocol
	// error, unlike local recovery which tolerates a torn tail.
	s := newStore(t, Options{})
	if err := s.AppendTxn(mustOps(t, `<urn:a> <urn:p> <urn:b> .`)); err != nil {
		t.Fatal(err)
	}
	good, _, _, ok := s.FramesSince(0, 100)
	if !ok {
		t.Fatal("FramesSince not ok")
	}
	if _, err := DecodeTxnFrames(nil); err != nil {
		t.Fatalf("empty stream rejected: %v", err)
	}
	if _, err := DecodeTxnFrames(good); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"torn last frame", good[:len(good)-1], "implausible"},
		{"truncated header", good[:3], "torn"},
		{"corrupt byte", corruptLastByte(good), "CRC"},
		{"stray commit", append(append([]byte{}, good...), appendFrame(nil, Record{Kind: KindCommit, Txn: 2})...), "stray"},
		{"abort record", txnWith(t, 2, KindAbort), "abort"},
		{"begin inside txn", doubleBegin(t), "inside"},
		{"missing commit", txnWithoutCommit(t, 2), "ends inside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeTxnFrames(tc.data)
			if err == nil {
				t.Fatal("malformed stream accepted")
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// corruptLastByte flips a bit in the final record's payload.
func corruptLastByte(data []byte) []byte {
	out := append([]byte{}, data...)
	out[len(out)-1] ^= 0xff
	return out
}

// txnWith builds Begin(txn) + one kind record + Commit(txn).
func txnWith(t *testing.T, txn uint64, kind Kind) []byte {
	t.Helper()
	out := appendFrame(nil, Record{Kind: KindBegin, Txn: txn})
	out = appendFrame(out, Record{Kind: kind, Txn: txn})
	return appendFrame(out, Record{Kind: KindCommit, Txn: txn})
}

// txnWithoutCommit builds a Begin with no Commit — a batch a primary
// would never seal.
func txnWithoutCommit(t *testing.T, txn uint64) []byte {
	t.Helper()
	return appendFrame(nil, Record{Kind: KindBegin, Txn: txn})
}

// doubleBegin nests a Begin inside an open transaction.
func doubleBegin(t *testing.T) []byte {
	t.Helper()
	out := appendFrame(nil, Record{Kind: KindBegin, Txn: 1})
	return appendFrame(out, Record{Kind: KindBegin, Txn: 2})
}
