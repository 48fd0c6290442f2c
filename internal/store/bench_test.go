package store

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"
)

// populate writes count channels (one meta record and two subscribers
// each) through the store, leaving the history split across snapshot and
// WAL exactly as a long-lived node would.
func populate(b *testing.B, s *Store, count int) {
	b.Helper()
	for i := 0; i < count; i++ {
		url := fmt.Sprintf("http://bench.example.net/feed/%d.xml", i)
		s.Append(Record{
			Op: OpMeta, URL: url, Owner: true, Level: 3, Epoch: 2,
			Version: uint64(i), Count: 0, SizeBytes: 4096, IntervalSec: 1800,
		})
		s.Append(subscribeRec(url, 2*i))
		s.Append(subscribeRec(url, 2*i+1))
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreAppend measures group-committed append throughput: the
// hot write path a busy owner drives on every subscription change and
// version advance.
func BenchmarkStoreAppend(b *testing.B) {
	dir := b.TempDir()
	s, _, err := Open(Options{Dir: dir, CommitWindow: defaultCommitWindow})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Spread across many channels so the materialized image matches a
	// real owner (many channels, small subscriber sets each).
	rec := subscribeRec("http://bench.example.net/feed/0.xml", 0)
	frameLen := len(appendFrame(nil, rec))
	b.SetBytes(int64(frameLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := subscribeRec(fmt.Sprintf("http://bench.example.net/feed/%d.xml", i%4096), i%64)
		s.Append(rec)
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreAppendReassert measures an owner heartbeat landing on a
// replica's store: the same metadata and subscriber set, re-asserted in
// a shuffled order, on a channel the size of the flash-crowd workload's.
func BenchmarkStoreAppendReassert(b *testing.B) {
	s, _, err := Open(Options{Dir: b.TempDir(), CommitWindow: defaultCommitWindow})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const subs = 1200
	rec := Record{Op: OpMeta, URL: "http://bench.example.net/hot.xml", Replica: true, Level: 1, Epoch: 2,
		Version: 9, SizeBytes: 4096, IntervalSec: 1, ReplaceSubs: true}
	for i := 0; i < subs; i++ {
		rec.Subs = append(rec.Subs, sub(i))
	}
	s.Append(rec)
	rand.New(rand.NewSource(1)).Shuffle(subs, func(i, j int) { rec.Subs[i], rec.Subs[j] = rec.Subs[j], rec.Subs[i] })
	b.ReportAllocs()
	for b.Loop() {
		s.Append(rec)
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreReplayWAL measures pure log replay: applying every
// intact record of an n-channel WAL to an empty image. This is the
// dominant term of a restart that crashed before its first compaction.
func BenchmarkStoreReplayWAL(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("channels=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			s, _, err := Open(Options{Dir: dir, CommitWindow: time.Hour, CompactEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			populate(b, s, n)
			path := walPath(dir, s.gen)
			s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				state := make(map[string]*Channel)
				if got := replayWAL(path, state); got != 3*n {
					b.Fatalf("replayed %d records, want %d", got, 3*n)
				}
			}
		})
	}
}

// BenchmarkStoreReplaySnapshot measures loading a compacted n-channel
// image: the dominant term of a clean restart.
func BenchmarkStoreReplaySnapshot(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("channels=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			s, _, err := Open(Options{Dir: dir, CommitWindow: time.Hour, CompactEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			populate(b, s, n)
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
			path := snapPath(dir, s.gen)
			s.Close()
			buf, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, channels, err := decodeSnapshot(buf); err != nil || len(channels) != n {
					b.Fatalf("decode: %d channels, err=%v", len(channels), err)
				}
			}
		})
	}
}

// BenchmarkStoreOpen measures the full restart path — scan, snapshot
// load, WAL replay, compaction into a fresh generation — over a
// 10k-channel directory whose history is split between a snapshot and a
// live WAL tail, the acceptance shape for restart-rejoin.
func BenchmarkStoreOpen(b *testing.B) {
	const n = 10000
	dir := b.TempDir()
	s, _, err := Open(Options{Dir: dir, CommitWindow: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	// Default CompactEvery (8192) puts ~8k records in the snapshot and
	// the rest in the WAL tail.
	populate(b, s, n)
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, recovered, err := Open(Options{Dir: dir, CommitWindow: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		if len(recovered) != n {
			b.Fatalf("recovered %d channels, want %d", len(recovered), n)
		}
		s.Close()
	}
}
