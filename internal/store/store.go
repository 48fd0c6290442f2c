package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options configures a Store.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// CommitWindow is the group-commit window: appended records become
	// durable within this much time, amortizing one fsync across every
	// record that arrives inside the window. Zero means the 2ms default;
	// negative commits synchronously on every append (tests, paranoia).
	CommitWindow time.Duration
	// CompactEvery triggers snapshot compaction after this many WAL
	// records. Zero means the 8192 default.
	CompactEvery int
}

const (
	defaultCommitWindow = 2 * time.Millisecond
	defaultCompactEvery = 8192
)

func (o Options) withDefaults() Options {
	if o.CommitWindow == 0 {
		o.CommitWindow = defaultCommitWindow
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = defaultCompactEvery
	}
	return o
}

// Store is a durable channel-state store: a group-committed WAL in front
// of snapshot compaction, with the materialized image kept in memory.
// All methods are safe for concurrent use.
type Store struct {
	opts Options

	lock *os.File // flock on Dir/LOCK, held for the store's lifetime

	mu         sync.Mutex
	rotated    sync.Cond // broadcast when a compaction finishes
	state      map[string]*Channel
	wal        *walFile
	gen        uint64
	pending    []byte // encoded frames awaiting the next group commit
	walRecords int    // records in the current WAL (compaction trigger)
	// flushTimer is the group-commit timer, made by the first windowed
	// append and re-armed (Reset) for every later window; flushArmed
	// reports a window open, its flush not yet run.
	flushTimer *time.Timer
	flushArmed bool
	compacting bool
	rotating   bool // compaction file IO in flight; commits pause
	closed     bool
	err        error // first IO error, latched

	commitLat    [len(CommitLatencyBounds) + 1]uint64
	commitLatSum time.Duration
}

// CommitLatencyBounds are the fixed bucket upper bounds of the commit
// latency histogram in Stats.CommitLatency: bucket i counts commits that
// took at most CommitLatencyBounds[i]; the final extra bucket counts the
// overflow. A commit here is one group-commit flush — the write+fsync a
// batch of appended records waits on before it is durable — so the
// histogram is the store's answer to "what does durability cost on this
// disk", with tail buckets exposing fsync stalls that averages hide.
var CommitLatencyBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
}

// Open recovers the directory's durable state (newest valid snapshot
// plus every intact WAL record), compacts it into a fresh generation,
// and returns the store plus the recovered channel images.
func Open(opts Options) (*Store, []Channel, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("store: Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	// Exclusive directory lock: a second store on the same directory
	// would compact over this one's live WAL and silently discard its
	// commits. Fail fast instead.
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{opts: opts, lock: lock, state: make(map[string]*Channel)}
	s.rotated.L = &s.mu

	snaps, wals, maxGen := scanDir(opts.Dir)
	// Newest valid snapshot wins; damaged ones fall back a generation.
	for i := len(snaps) - 1; i >= 0; i-- {
		buf, err := os.ReadFile(snapPath(opts.Dir, snaps[i]))
		if err != nil {
			continue
		}
		_, channels, err := decodeSnapshot(buf)
		if err != nil {
			continue
		}
		for _, ch := range channels {
			c := ch
			s.state[c.URL] = &c
		}
		break
	}
	// Replay every log ascending; records are idempotent so overlap with
	// the snapshot (crash during compaction) is harmless.
	for _, gen := range wals {
		replayWAL(walPath(opts.Dir, gen), s.state)
	}
	recovered := imageSlice(s.state)

	// Compact immediately: recovery lands in a single fresh generation
	// and any crash leftovers are swept.
	s.gen = maxGen + 1
	if err := writeSnapshot(opts.Dir, s.gen, recovered); err != nil {
		lock.Close()
		return nil, nil, err
	}
	wal, err := createWAL(walPath(opts.Dir, s.gen), s.gen)
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	s.wal = wal
	if err := syncDir(opts.Dir); err != nil {
		wal.close()
		lock.Close()
		return nil, nil, err
	}
	sweepExcept(opts.Dir, s.gen)
	return s, recovered, nil
}

// scanDir lists the directory's snapshot and WAL generations (each
// ascending) and the highest generation seen, removing stale temp files.
func scanDir(dir string) (snaps, wals []uint64, maxGen uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // stale snapshot temp
			continue
		}
		if gen, ok := genOf(name, "snap-"); ok {
			snaps = append(snaps, gen)
			if gen > maxGen {
				maxGen = gen
			}
		}
		if gen, ok := genOf(name, "wal-"); ok {
			wals = append(wals, gen)
			if gen > maxGen {
				maxGen = gen
			}
		}
	}
	return snaps, wals, maxGen
}

// genOf parses "<prefix><16-digit-gen>" names.
func genOf(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// sweepExcept deletes every snapshot and WAL not of generation keep.
func sweepExcept(dir string, keep uint64) {
	snaps, wals, _ := scanDir(dir)
	for _, gen := range snaps {
		if gen != keep {
			os.Remove(snapPath(dir, gen))
		}
	}
	for _, gen := range wals {
		if gen != keep {
			os.Remove(walPath(dir, gen))
		}
	}
}

// StateChanged implements Sink by appending the record.
func (s *Store) StateChanged(rec Record) { s.Append(rec) }

// maxSubsPerRecord caps the subscriber list one WAL record carries;
// bigger replacements are split so no frame approaches MaxRecordBytes.
const maxSubsPerRecord = 8192

// Append logs one record. The call is asynchronous: it materializes the
// change in memory, queues the frame, and returns; durability follows
// within the commit window (or immediately when the window is negative).
//
// A record that would leave the image as it is — a re-asserted epoch or
// version, or replicated metadata and subscriber set equal to what the
// image holds — is dropped: the log holds every change of the image, not
// every call. Records are dropped only while the log has taken every
// frame; after an IO error each record is journaled again.
func (s *Store) Append(rec Record) {
	s.mu.Lock()
	if s.closed || s.err == nil && !rec.changes(s.state[rec.URL]) {
		s.mu.Unlock()
		return
	}
	if rec.Op == OpMeta && rec.ReplaceSubs && len(rec.Subs) > maxSubsPerRecord {
		// Split a huge subscriber replacement: the capped OpMeta replaces
		// the set, OpSubsChunk records top it up. Each piece stays far
		// below the replay-side frame limit.
		head := rec
		head.Subs = rec.Subs[:maxSubsPerRecord]
		s.appendLocked(head)
		for rest := rec.Subs[maxSubsPerRecord:]; len(rest) > 0; {
			n := min(maxSubsPerRecord, len(rest))
			s.appendLocked(Record{Op: OpSubsChunk, URL: rec.URL, Subs: rest[:n]})
			rest = rest[n:]
		}
	} else {
		s.appendLocked(rec)
	}
	syncNow := s.opts.CommitWindow < 0
	if !syncNow && !s.flushArmed {
		s.flushArmed = true
		if s.flushTimer == nil {
			s.flushTimer = time.AfterFunc(s.opts.CommitWindow, s.flushWindow)
		} else {
			s.flushTimer.Reset(s.opts.CommitWindow)
		}
	}
	compactNow := s.walRecords >= s.opts.CompactEvery && !s.compacting
	if compactNow {
		s.compacting = true
	}
	if syncNow {
		s.commitLocked()
	}
	s.mu.Unlock()
	if compactNow {
		go s.compact()
	}
}

// appendLocked materializes one record and queues its frame. Callers
// hold mu.
func (s *Store) appendLocked(rec Record) {
	rec.apply(s.state)
	s.pending = appendFrame(s.pending, rec)
	s.walRecords++
}

// maxKeptPending bounds the frame buffer a store keeps between group
// commits.
const maxKeptPending = 64 << 10

// flushWindow is the group-commit timer callback.
func (s *Store) flushWindow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushArmed = false
	if s.closed {
		return
	}
	s.commitLocked()
}

// commitLocked writes and fsyncs all pending frames. Callers hold mu.
// While a compaction's file IO is in flight the commit is deferred —
// frames written to the outgoing WAL after the snapshot image was taken
// would be deleted with it — and the rotation's completion flushes the
// accumulated buffer into the new log.
func (s *Store) commitLocked() {
	if len(s.pending) == 0 || s.wal == nil || s.rotating {
		return
	}
	frames := s.pending
	t0 := time.Now()
	err := s.wal.commit(frames)
	// The write is done with the buffer: the next window appends into it,
	// unless a burst grew it past maxKeptPending.
	s.pending = nil
	if cap(frames) <= maxKeptPending {
		s.pending = frames[:0]
	}
	elapsed := time.Since(t0)
	bucket := len(CommitLatencyBounds)
	for i, bound := range CommitLatencyBounds {
		if elapsed <= bound {
			bucket = i
			break
		}
	}
	s.commitLat[bucket]++
	s.commitLatSum += elapsed
	if err != nil && s.err == nil {
		s.err = err
	}
}

// Sync forces an immediate group commit (waiting out any in-flight
// compaction rotation) and reports the store's latched IO error state.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.rotating && !s.closed {
		s.rotated.Wait()
	}
	if s.closed {
		return s.err
	}
	s.commitLocked()
	return s.err
}

// compact flushes the current WAL, writes the materialized image as the
// next generation's snapshot, rotates to a fresh WAL, and deletes the old
// generation's files. All file IO runs outside the store lock — appends
// keep materializing and buffering throughout — with commits paused so
// nothing lands in the doomed old log.
func (s *Store) compact() {
	s.mu.Lock()
	if s.closed || s.rotating {
		s.compacting = false
		s.rotated.Broadcast()
		s.mu.Unlock()
		return
	}
	s.commitLocked() // the old WAL now holds everything in the image
	image := imageSlice(s.state)
	oldGen, newGen := s.gen, s.gen+1
	oldWAL := s.wal
	s.rotating = true
	s.mu.Unlock()

	wal := (*walFile)(nil)
	err := writeSnapshot(s.opts.Dir, newGen, image)
	if err == nil {
		if wal, err = createWAL(walPath(s.opts.Dir, newGen), newGen); err != nil {
			os.Remove(snapPath(s.opts.Dir, newGen))
		}
	}
	if err == nil {
		if derr := syncDir(s.opts.Dir); derr != nil {
			err = derr
			wal.close()
			wal = nil
			os.Remove(walPath(s.opts.Dir, newGen))
			os.Remove(snapPath(s.opts.Dir, newGen))
		}
	}

	s.mu.Lock()
	switch {
	case s.closed:
		// Abort raced the rotation; leftover new-generation files are
		// harmless (recovery replays idempotently and re-sweeps).
		if wal != nil {
			wal.close()
		}
	case err != nil:
		if s.err == nil {
			s.err = err
		}
		// Back off: the records stay replayable in the old WAL; retry
		// only after another CompactEvery records, not on every append.
		s.walRecords = 0
	default:
		oldWAL.close()
		s.wal = wal
		s.gen = newGen
		s.walRecords = 0
		s.mu.Unlock()
		// The old generation goes while the rotation is still marked in
		// flight: Close and Compact wait it out, so neither returns with
		// a deletion still running in the data directory.
		os.Remove(walPath(s.opts.Dir, oldGen))
		os.Remove(snapPath(s.opts.Dir, oldGen))
		s.mu.Lock()
	}
	s.rotating = false
	s.compacting = false
	if !s.closed {
		s.commitLocked() // records buffered during rotation land in the live log
	}
	s.rotated.Broadcast()
	s.mu.Unlock()
}

// Compact runs one compaction synchronously (exposed for tests and for
// operators wanting a bounded-replay shutdown). A background compaction
// already in flight is waited out first, so when Compact returns no
// compaction file IO is running.
func (s *Store) Compact() error {
	s.mu.Lock()
	for s.compacting && !s.closed {
		s.rotated.Wait()
	}
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.compacting = true
	s.mu.Unlock()
	s.compact()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Err returns the first IO error the store hit, if any. The in-memory
// image stays correct past an IO error; durability is what degraded.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// InjectIOError latches err as if a commit had failed, if no error is
// latched yet. It exists for tests and operational drills that need to
// see the degraded-durability path — /readyz flipping to 503 — without
// arranging a real disk fault.
func (s *Store) InjectIOError(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Stats is an operator-facing snapshot of the store's durability state.
type Stats struct {
	// Generation is the current snapshot/WAL generation.
	Generation uint64
	// WALBytes is the current write-ahead log's size on disk, header
	// included (pending uncommitted frames are not yet counted).
	WALBytes int64
	// RecordsSinceSnapshot counts records appended since the last
	// compaction — what a restart right now would have to replay.
	RecordsSinceSnapshot int
	// Channels is the materialized image's channel count.
	Channels int
	// CommitLatency is the fixed-bucket histogram of group-commit
	// (write+fsync) latencies: CommitLatency[i] counts commits within
	// CommitLatencyBounds[i], the last element the overflow.
	CommitLatency [len(CommitLatencyBounds) + 1]uint64
	// CommitLatencySum is the total time spent in group commits — with
	// the bucket counts it gives the histogram an honest _sum in
	// Prometheus exposition instead of a bucket-midpoint estimate.
	CommitLatencySum time.Duration
	// Err is the latched first IO error, nil while durability is intact.
	Err error
}

// Stats snapshots the store's durability state for observability:
// WAL growth, replay debt since the last snapshot, and the latched IO
// error an operator must see before trusting a restart.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Generation:           s.gen,
		RecordsSinceSnapshot: s.walRecords,
		Channels:             len(s.state),
		CommitLatency:        s.commitLat,
		CommitLatencySum:     s.commitLatSum,
		Err:                  s.err,
	}
	if s.wal != nil {
		st.WALBytes = s.wal.bytes
	}
	return st
}

// Channels returns a copy of the current materialized image (tests,
// introspection).
func (s *Store) Channels() []Channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return imageSlice(s.state)
}

// Close flushes pending records and closes the log. An in-flight
// compaction rotation is waited out first so the final flush lands in a
// log that survives.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.rotating && !s.closed {
		s.rotated.Wait()
	}
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.flushTimer != nil {
		s.flushTimer.Stop()
	}
	s.commitLocked()
	if s.wal != nil {
		if err := s.wal.close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	if s.lock != nil {
		s.lock.Close()
	}
	return s.err
}

// Abort closes the store without flushing the pending buffer, simulating
// a crash that loses everything inside the current commit window. Tests
// of the recovery path use it; production shutdown uses Close.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.flushTimer != nil {
		s.flushTimer.Stop()
	}
	s.pending = nil
	if s.wal != nil {
		s.wal.close()
	}
	if s.lock != nil {
		s.lock.Close()
	}
}
