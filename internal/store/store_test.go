package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"corona/internal/ids"
)

// openT opens a store in dir with a huge commit window (tests flush
// explicitly) unless overridden.
func openT(t *testing.T, dir string, opts Options) (*Store, []Channel) {
	t.Helper()
	opts.Dir = dir
	if opts.CommitWindow == 0 {
		opts.CommitWindow = time.Hour
	}
	s, recovered, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, recovered
}

func sub(i int) Sub {
	return Sub{
		Client:        fmt.Sprintf("client-%d", i),
		EntryID:       ids.HashString(fmt.Sprintf("entry-%d", i)),
		EntryEndpoint: fmt.Sprintf("10.0.0.%d:9001", i%250+1),
	}
}

func subscribeRec(url string, i int) Record {
	return Record{Op: OpSubscribe, URL: url, Sub: sub(i)}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		subscribeRec("http://a/feed.xml", 1),
		{Op: OpUnsubscribe, URL: "http://a/feed.xml", Sub: Sub{Client: "client-1"}},
		{
			Op: OpMeta, URL: "http://b", Owner: true, Replica: false, Level: -1,
			Epoch: 9, Version: 1 << 40, Count: 3, SizeBytes: 4096, IntervalSec: 812.25,
		},
		{
			Op: OpMeta, URL: "http://c", Replica: true, Level: 4, ReplaceSubs: true,
			Subs: []Sub{sub(1), sub(2), sub(3)},
		},
		{Op: OpMeta, URL: "http://d", ReplaceSubs: true}, // empty replacement
		{Op: OpVersion, URL: "http://b", Version: 77},
	}
	for i, rec := range recs {
		b := appendRecord(nil, rec)
		got, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d round trip:\n got  %+v\n want %+v", i, got, rec)
		}
		// Byte-stable re-encode.
		if b2 := appendRecord(nil, got); string(b2) != string(b) {
			t.Fatalf("record %d encoding not byte-stable", i)
		}
	}
}

func TestRecoverAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, recovered := openT(t, dir, Options{})
	if len(recovered) != 0 {
		t.Fatalf("fresh dir recovered %d channels", len(recovered))
	}
	s.Append(subscribeRec("http://a", 1))
	s.Append(subscribeRec("http://a", 2))
	s.Append(Record{Op: OpMeta, URL: "http://a", Owner: true, Level: 2, Epoch: 5, SizeBytes: 4096, IntervalSec: 60})
	s.Append(Record{Op: OpVersion, URL: "http://a", Version: 12})
	s.Append(subscribeRec("http://b", 3))
	s.Append(Record{Op: OpUnsubscribe, URL: "http://b", Sub: Sub{Client: "client-3"}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, recovered := openT(t, dir, Options{})
	defer s2.Close()
	if len(recovered) != 2 {
		t.Fatalf("recovered %d channels, want 2", len(recovered))
	}
	a := recovered[0]
	if a.URL != "http://a" || !a.Owner || a.Level != 2 || a.Epoch != 5 || a.Version != 12 || a.Count != 2 || len(a.Subs) != 2 {
		t.Fatalf("channel a = %+v", a)
	}
	if a.Subs[0] != sub(1) || a.Subs[1] != sub(2) {
		t.Fatalf("subs = %+v", a.Subs)
	}
	b := recovered[1]
	if b.URL != "http://b" || b.Count != 0 || len(b.Subs) != 0 {
		t.Fatalf("channel b = %+v (unsubscribe not applied)", b)
	}
}

func TestGroupCommitWindowFlushes(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{CommitWindow: 2 * time.Millisecond})
	s.Append(subscribeRec("http://a", 1))
	// No Sync, no Close: the window flusher alone must make it durable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		flushed := len(s.pending) == 0
		s.mu.Unlock()
		if flushed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group commit window never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	s.Abort() // crash after the window: the record must survive
	_, recovered := openT(t, dir, Options{})
	if len(recovered) != 1 || recovered[0].Count != 1 {
		t.Fatalf("recovered = %+v", recovered)
	}
}

func TestAbortLosesOnlyUnflushedWindow(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{}) // 1h window: nothing flushes on its own
	s.Append(subscribeRec("http://a", 1))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Append(subscribeRec("http://a", 2)) // inside the window at crash time
	s.Abort()

	_, recovered := openT(t, dir, Options{})
	if len(recovered) != 1 {
		t.Fatalf("recovered %d channels", len(recovered))
	}
	if got := recovered[0]; got.Count != 1 || len(got.Subs) != 1 || got.Subs[0].Client != "client-1" {
		t.Fatalf("recovered channel = %+v, want only the synced subscriber", got)
	}
}

func TestCompactionRotatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{CompactEvery: 10})
	for i := 0; i < 35; i++ { // crosses the threshold multiple times
		s.Append(subscribeRec(fmt.Sprintf("http://c/%d", i%7), i))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Exactly one generation remains on disk.
	snaps, wals, _ := scanDir(dir)
	if len(snaps) != 1 || len(wals) != 1 {
		t.Fatalf("files after compaction: snaps=%v wals=%v", snaps, wals)
	}

	_, recovered := openT(t, dir, Options{})
	if len(recovered) != 7 {
		t.Fatalf("recovered %d channels, want 7", len(recovered))
	}
	for _, ch := range recovered {
		if ch.Count != 5 || len(ch.Subs) != 5 {
			t.Fatalf("channel %s has %d subs, want 5", ch.URL, len(ch.Subs))
		}
	}
}

func TestRecoverySurvivesCompactionCrashWindow(t *testing.T) {
	// Simulate a crash between snapshot rename and old-WAL deletion: both
	// snap-(G+1) and wal-G on disk. Idempotent replay must not corrupt.
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	s.Append(subscribeRec("http://a", 1))
	s.Append(Record{Op: OpMeta, URL: "http://a", Owner: true, Level: 3, Epoch: 2, SizeBytes: 1024, IntervalSec: 30})
	s.Append(Record{Op: OpUnsubscribe, URL: "http://a", Sub: Sub{Client: "client-1"}})
	s.Append(subscribeRec("http://a", 2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Open gen is 1; hand-craft snap-2 containing the full image while
	// leaving wal-1 in place, as a compaction crash would.
	if err := writeSnapshot(dir, 2, s.Channels()); err != nil {
		t.Fatal(err)
	}

	_, recovered := openT(t, dir, Options{})
	if len(recovered) != 1 {
		t.Fatalf("recovered %d channels", len(recovered))
	}
	got := recovered[0]
	if got.Count != 1 || len(got.Subs) != 1 || got.Subs[0].Client != "client-2" || !got.Owner || got.Level != 3 {
		t.Fatalf("overlap replay corrupted state: %+v", got)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	s.Append(subscribeRec("http://a", 1))
	if err := s.Compact(); err != nil { // snapshot now holds the channel
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _, _ := scanDir(dir)
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot, have %v", snaps)
	}
	path := snapPath(dir, snaps[0])
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff // body corruption the CRC must catch
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	// The snapshot is rejected wholesale; with no other snapshot and an
	// empty post-compaction WAL, recovery is empty — but must not fail.
	_, recovered := openT(t, dir, Options{})
	if len(recovered) != 0 {
		t.Fatalf("corrupt snapshot yielded channels: %+v", recovered)
	}
}

func TestOpenRefusesLockedDir(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	defer s.Close()
	if _, _, err := Open(Options{Dir: dir, CommitWindow: time.Hour}); err == nil {
		t.Fatal("second store on a live data dir must be refused")
	}
	// Releasing the first store releases the lock.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openT(t, dir, Options{})
	s2.Close()
}

func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000009.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, recovered := openT(t, dir, Options{})
	defer s.Close()
	if len(recovered) != 0 {
		t.Fatalf("recovered from garbage: %+v", recovered)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000009.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept")
	}
}

// TestHugeSubscriberSetRoundTrips pins the fix for the encode/decode
// asymmetry: a channel far beyond any per-record cap (here 100k
// subscribers, well past the 8192-per-record split and the old 64k
// decoder cap) must survive WAL replay and snapshot compaction intact.
func TestHugeSubscriberSetRoundTrips(t *testing.T) {
	const n = 100_000
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{CompactEvery: 1 << 30})
	subs := make([]Sub, n)
	for i := range subs {
		subs[i] = sub(i)
	}
	s.Append(Record{
		Op: OpMeta, URL: "http://big", Owner: true, Level: 1,
		ReplaceSubs: true, Subs: subs,
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL replay path.
	s2, recovered := openT(t, dir, Options{})
	if len(recovered) != 1 || len(recovered[0].Subs) != n || recovered[0].Count != n {
		t.Fatalf("WAL replay: %d channels, %d subs", len(recovered), len(recovered[0].Subs))
	}
	// Snapshot path: compact, reopen.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered = openT(t, dir, Options{})
	if len(recovered) != 1 || len(recovered[0].Subs) != n {
		t.Fatalf("snapshot replay: %d channels, %d subs", len(recovered), len(recovered[0].Subs))
	}
	for i, got := range recovered[0].Subs {
		if got != subs[i] {
			t.Fatalf("sub %d differs after recovery", i)
		}
	}
}

// TestAppendsDuringCompactionSurvive overlaps appends with a compaction
// (whose file IO now runs outside the lock): records appended while the
// rotation is in flight must land in the new generation, not the doomed
// old WAL.
func TestAppendsDuringCompactionSurvive(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{CompactEvery: 1 << 30})
	for i := 0; i < 2000; i++ {
		s.Append(subscribeRec(fmt.Sprintf("http://c/%d", i%50), i))
	}
	done := make(chan error, 1)
	go func() { done <- s.Compact() }()
	for i := 2000; i < 2400; i++ {
		s.Append(subscribeRec(fmt.Sprintf("http://c/%d", i%50), i))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered := openT(t, dir, Options{})
	total := 0
	for _, ch := range recovered {
		total += len(ch.Subs)
	}
	if total != 2400 {
		t.Fatalf("recovered %d subscribers, want 2400", total)
	}
}

func TestAppendAfterCloseIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Append(subscribeRec("http://a", 1)) // must not panic or write
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	_, recovered := openT(t, dir, Options{})
	if len(recovered) != 0 {
		t.Fatalf("append after close leaked: %+v", recovered)
	}
}

func TestStatsTrackWALGrowthAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st := s.Stats()
	if st.RecordsSinceSnapshot != 0 || st.Err != nil {
		t.Fatalf("fresh store stats = %+v", st)
	}
	base := st.WALBytes
	if base <= 0 {
		t.Fatalf("fresh WAL reports %d bytes, want the header", base)
	}

	for i := 0; i < 10; i++ {
		s.Append(Record{Op: OpSubscribe, URL: "http://x/f.xml", Sub: Sub{Client: "alice", EntryEndpoint: "n1:1"}})
	}
	st = s.Stats()
	if st.RecordsSinceSnapshot != 10 {
		t.Fatalf("RecordsSinceSnapshot = %d, want 10", st.RecordsSinceSnapshot)
	}
	if st.WALBytes <= base {
		t.Fatalf("WALBytes = %d after 10 records, want > %d", st.WALBytes, base)
	}
	if st.Channels != 1 {
		t.Fatalf("Channels = %d, want 1", st.Channels)
	}

	// Compaction rotates to a fresh generation and resets the counters.
	gen := st.Generation
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Generation != gen+1 {
		t.Fatalf("Generation = %d after compaction, want %d", st.Generation, gen+1)
	}
	if st.RecordsSinceSnapshot != 0 {
		t.Fatalf("RecordsSinceSnapshot = %d after compaction, want 0", st.RecordsSinceSnapshot)
	}
}

func TestStatsCommitLatencyHistogram(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{CommitWindow: -1}) // synchronous: one commit per append
	defer s.Close()

	if n := len(s.Stats().CommitLatency); n != len(CommitLatencyBounds)+1 {
		t.Fatalf("histogram has %d buckets, want %d", n, len(CommitLatencyBounds)+1)
	}
	const appends = 25
	for i := 0; i < appends; i++ {
		s.Append(Record{Op: OpSubscribe, URL: "http://x/f.xml",
			Sub: Sub{Client: "alice", EntryEndpoint: "n1:1"}})
	}
	var total uint64
	for _, c := range s.Stats().CommitLatency {
		total += c
	}
	if total != appends {
		t.Fatalf("histogram counts %d commits, want %d", total, appends)
	}
}

// TestRecordChanges pins which records the store may drop: exactly the
// ones whose apply leaves the channel's image as it is.
func TestRecordChanges(t *testing.T) {
	const url = "http://c/f.xml"
	image := func() *Channel {
		state := make(map[string]*Channel)
		for _, rec := range []Record{
			{Op: OpMeta, URL: url, Owner: true, Level: 2, Epoch: 3, Version: 7, SizeBytes: 512, IntervalSec: 1.5,
				ReplaceSubs: true, Subs: []Sub{sub(1), sub(2), sub(3)}},
			{Op: OpOwnerEpoch, URL: url, OwnerEpoch: 4},
			{Op: OpLease, URL: url, Lease: Lease{Client: sub(2).Client, UnixNano: 1}},
		} {
			rec.apply(state)
		}
		return state[url]
	}
	meta := func(subs ...Sub) Record {
		return Record{Op: OpMeta, URL: url, Owner: true, Level: 2, Epoch: 3, Version: 7, SizeBytes: 512,
			IntervalSec: 1.5, ReplaceSubs: true, Subs: subs}
	}
	moved := sub(2)
	moved.EntryEndpoint = "elsewhere:1"
	counted := meta()
	counted.ReplaceSubs = false
	counted.Count = 5
	for _, tc := range []struct {
		name string
		rec  Record
		ch   *Channel
		want bool
	}{
		{"new channel", Record{Op: OpVersion, URL: url, Version: 1}, nil, true},
		{"no URL", Record{Op: OpVersion, Version: 1}, nil, false},
		{"version behind", Record{Op: OpVersion, URL: url, Version: 6}, image(), false},
		{"version equal", Record{Op: OpVersion, URL: url, Version: 7}, image(), false},
		{"version ahead", Record{Op: OpVersion, URL: url, Version: 8}, image(), true},
		{"owner epoch equal", Record{Op: OpOwnerEpoch, URL: url, OwnerEpoch: 4}, image(), false},
		{"owner epoch ahead", Record{Op: OpOwnerEpoch, URL: url, OwnerEpoch: 5}, image(), true},
		{"same set, other order", meta(sub(3), sub(1), sub(2)), image(), false},
		{"a client twice", meta(sub(1), sub(1), sub(2)), image(), true},
		{"a client moved", meta(sub(1), moved, sub(3)), image(), true},
		{"a client fewer", meta(sub(1), sub(2)), image(), true},
		{"metadata without subscribers", func() Record { r := meta(); r.ReplaceSubs = false; return r }(), image(), false},
		{"level moved", func() Record { r := meta(sub(1), sub(2), sub(3)); r.Level = 1; return r }(), image(), true},
		{"orphan lease pruned", meta(sub(1), sub(3), sub(4)), image(), true},
		{"counted total equal", counted, func() *Channel { c := image(); c.Subs, c.index, c.Leases, c.Count = nil, nil, nil, 5; return c }(), false},
		{"counted total reset", meta(), func() *Channel { c := image(); c.Subs, c.index, c.Leases, c.Count = nil, nil, nil, 5; return c }(), true},
		{"subscribe", subscribeRec(url, 1), image(), true},
	} {
		if got := tc.rec.changes(tc.ch); got != tc.want {
			t.Errorf("%s: changes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWALBytesUnchanged pins the log's bytes: records appended through
// the store, across several group-commit windows, land in the WAL as the
// file header followed by one frame per record that changes the image,
// each frame its payload's length and CRC-32C (little-endian) and then
// the payload appendRecord encodes on its own.
func TestWALBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{CommitWindow: time.Millisecond})
	want := appendWALHeader(nil, s.gen)
	image := make(map[string]*Channel)
	for i, rec := range testRecords() {
		if rec.changes(image[rec.URL]) {
			rec.apply(image)
			payload := appendRecord(nil, rec)
			want = binary.LittleEndian.AppendUint32(want, uint32(len(payload)))
			want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
			want = append(want, payload...)
		}
		s.Append(rec)
		if i%7 == 6 {
			time.Sleep(3 * time.Millisecond) // let a window close
		}
	}
	gen := s.gen
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(walPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL holds %d bytes, want %d:\n got %x\nwant %x", len(got), len(want), got, want)
	}
}
