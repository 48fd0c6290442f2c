package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// buildWAL writes a generation-1 WAL containing recs and returns the file
// bytes plus the byte offset at which each record's frame ends.
func buildWAL(recs []Record) (buf []byte, frameEnds []int) {
	buf = appendWALHeader(nil, 1)
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
		frameEnds = append(frameEnds, len(buf))
	}
	return buf, frameEnds
}

// testRecords is a mixed mutation history over a few channels, covering
// every record op (the owner-epoch and lease records included, so the
// truncation and fuzz properties exercise their decode paths).
func testRecords() []Record {
	var recs []Record
	for i := 0; i < 20; i++ {
		url := fmt.Sprintf("http://r/%d", i%3)
		switch i % 4 {
		case 0, 1:
			recs = append(recs, subscribeRec(url, i))
		case 2:
			recs = append(recs, Record{
				Op: OpMeta, URL: url, Owner: i%8 == 2, Replica: i%8 == 6,
				Level: i % 5, Epoch: uint64(i), Version: uint64(i * 3),
				Count: i % 4, SizeBytes: 512 * i, IntervalSec: float64(i) * 1.5,
			})
		case 3:
			recs = append(recs, Record{Op: OpVersion, URL: url, Version: uint64(i * 7)})
		}
		if i%5 == 0 {
			recs = append(recs, Record{Op: OpOwnerEpoch, URL: url, OwnerEpoch: uint64(i + 2)})
		}
		if i%6 == 1 {
			recs = append(recs, Record{
				Op: OpLease, URL: url,
				Lease: Lease{Client: fmt.Sprintf("client-%d", i), UnixNano: int64(1700000000e9) + int64(i)},
			})
		}
		if i == 13 {
			// A lease clear (zero time) removes the earlier mark.
			recs = append(recs, Record{Op: OpLease, URL: url, Lease: Lease{Client: "client-13"}})
		}
		if i == 10 {
			recs = append(recs, Record{Op: OpSubsChunk, URL: url, Subs: []Sub{sub(100 + i), sub(200 + i)}})
		}
		if i == 6 || i == 7 {
			recs = append(recs, Record{Op: OpDelegates, URL: url, Delegates: []Delegate{
				{ID: sub(i).EntryID, Endpoint: fmt.Sprintf("sim://%d", i)},
				{ID: sub(i + 1).EntryID, Endpoint: fmt.Sprintf("sim://%d", i+1)},
			}})
		}
		if i == 15 {
			// An empty roster clears the i==6 delegation (same url, i%3==0);
			// the i==7 one survives to the image.
			recs = append(recs, Record{Op: OpDelegates, URL: url})
		}
	}
	return recs
}

// applyAll materializes a record prefix the way replay should.
func applyAll(recs []Record) map[string]*Channel {
	state := make(map[string]*Channel)
	for _, rec := range recs {
		rec.apply(state)
	}
	return state
}

func channelsEqual(t *testing.T, got map[string]*Channel, want map[string]*Channel, context string) {
	t.Helper()
	gs, ws := imageSlice(got), imageSlice(want)
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d channels, want %d", context, len(gs), len(ws))
	}
	for i := range gs {
		g, w := gs[i], ws[i]
		if g.URL != w.URL || g.Owner != w.Owner || g.Replica != w.Replica ||
			g.Level != w.Level || g.Epoch != w.Epoch || g.OwnerEpoch != w.OwnerEpoch ||
			g.Version != w.Version ||
			g.Count != w.Count || g.SizeBytes != w.SizeBytes || g.IntervalSec != w.IntervalSec ||
			len(g.Subs) != len(w.Subs) || len(g.Leases) != len(w.Leases) ||
			len(g.Delegates) != len(w.Delegates) {
			t.Fatalf("%s: channel %d:\n got  %+v\n want %+v", context, i, g, w)
		}
		for j := range g.Subs {
			if g.Subs[j] != w.Subs[j] {
				t.Fatalf("%s: channel %s sub %d differs", context, g.URL, j)
			}
		}
		for j := range g.Leases {
			if g.Leases[j] != w.Leases[j] {
				t.Fatalf("%s: channel %s lease %d differs", context, g.URL, j)
			}
		}
		for j := range g.Delegates {
			if g.Delegates[j] != w.Delegates[j] {
				t.Fatalf("%s: channel %s delegate %d differs", context, g.URL, j)
			}
		}
	}
}

// TestReplayTruncationAtEveryByte is the core robustness property: a WAL
// cut at any byte replays exactly the records whose frames fit before
// the cut — everything before the damage, nothing after, no panic.
func TestReplayTruncationAtEveryByte(t *testing.T) {
	recs := testRecords()
	buf, frameEnds := buildWAL(recs)
	dir := t.TempDir()
	path := walPath(dir, 1)
	for cut := 0; cut <= len(buf); cut++ {
		if err := os.WriteFile(path, buf[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		state := make(map[string]*Channel)
		n := replayWAL(path, state)
		wantRecords := 0
		for _, end := range frameEnds {
			if end <= cut {
				wantRecords++
			}
		}
		if n != wantRecords {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, n, wantRecords)
		}
		channelsEqual(t, state, applyAll(recs[:wantRecords]), fmt.Sprintf("cut at %d", cut))
	}
}

// TestReplayCRCCorruptionStopsAtDamage flips each byte of one frame in
// turn: replay must keep every frame before the damaged one and discard
// the rest.
func TestReplayCRCCorruptionStopsAtDamage(t *testing.T) {
	recs := testRecords()
	buf, frameEnds := buildWAL(recs)
	dir := t.TempDir()
	path := walPath(dir, 1)
	damagedFrame := len(recs) / 2
	frameStart := frameEnds[damagedFrame-1]
	for off := frameStart; off < frameEnds[damagedFrame]; off++ {
		corrupted := append([]byte(nil), buf...)
		corrupted[off] ^= 0x5a
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		state := make(map[string]*Channel)
		n := replayWAL(path, state)
		// Flipping a length byte may make the frame claim a longer (still
		// in-bounds) payload whose CRC then fails, or run past the end;
		// either way nothing at or after the damaged frame may apply.
		if n > damagedFrame {
			t.Fatalf("corrupt byte %d: replayed %d records past damage at frame %d", off, n, damagedFrame)
		}
		if n == damagedFrame {
			channelsEqual(t, state, applyAll(recs[:damagedFrame]), fmt.Sprintf("corrupt byte %d", off))
		}
	}
}

// TestReplayTornFinalRecord pins the common crash artifact by name: a
// final frame whose payload was cut mid-write recovers every earlier
// record.
func TestReplayTornFinalRecord(t *testing.T) {
	recs := testRecords()
	buf, frameEnds := buildWAL(recs)
	dir := t.TempDir()
	path := walPath(dir, 1)
	// Keep all but the last frame intact, then half of the last frame.
	lastStart := frameEnds[len(frameEnds)-2]
	torn := buf[:lastStart+(len(buf)-lastStart)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	state := make(map[string]*Channel)
	if n := replayWAL(path, state); n != len(recs)-1 {
		t.Fatalf("torn final record: replayed %d, want %d", n, len(recs)-1)
	}
	channelsEqual(t, state, applyAll(recs[:len(recs)-1]), "torn final record")
}

// TestReplayHostileLength rejects a frame whose length prefix claims
// more than MaxRecordBytes or more than the file holds.
func TestReplayHostileLength(t *testing.T) {
	dir := t.TempDir()
	path := walPath(dir, 1)
	valid := appendFrame(appendWALHeader(nil, 1), subscribeRec("http://a", 1))
	for _, hostile := range []uint32{MaxRecordBytes + 1, 1 << 31, 0xffffffff} {
		buf := append([]byte(nil), valid...)
		buf = binary.LittleEndian.AppendUint32(buf, hostile)
		buf = binary.LittleEndian.AppendUint32(buf, 0xdeadbeef)
		buf = append(buf, make([]byte, 64)...) // some payload bytes, far short of the claim
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		state := make(map[string]*Channel)
		if n := replayWAL(path, state); n != 1 {
			t.Fatalf("hostile length %d: replayed %d records, want 1", hostile, n)
		}
	}
}

// TestReplayBadHeader ignores files that are not WALs.
func TestReplayBadHeader(t *testing.T) {
	dir := t.TempDir()
	path := walPath(dir, 1)
	for _, junk := range [][]byte{nil, []byte("x"), []byte("CORSNP1\n"), []byte("CORWAL1"), make([]byte, 200)} {
		if err := os.WriteFile(path, junk, 0o644); err != nil {
			t.Fatal(err)
		}
		state := make(map[string]*Channel)
		if n := replayWAL(path, state); n != 0 || len(state) != 0 {
			t.Fatalf("junk header %q replayed %d records", junk, n)
		}
	}
}

// TestOpenNeverFailsOnDamage drives the full recovery path over a
// damaged directory: any WAL damage yields a working store with the
// intact prefix.
func TestOpenNeverFailsOnDamage(t *testing.T) {
	recs := testRecords()
	buf, _ := buildWAL(recs)
	for _, cut := range []int{0, 1, len(buf) / 3, len(buf) - 3, len(buf)} {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir, 1), buf[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := Open(Options{Dir: dir, CommitWindow: time.Hour})
		if err != nil {
			t.Fatalf("cut %d: Open failed: %v", cut, err)
		}
		s.Close()
	}
}

// FuzzReplayWAL feeds arbitrary bytes to the replay path: it must never
// panic and never report more records than the buffer could hold.
func FuzzReplayWAL(f *testing.F) {
	full, _ := buildWAL(testRecords())
	f.Add(full)
	f.Add(full[:len(full)-5])
	f.Add(appendWALHeader(nil, 0))
	f.Add([]byte("CORWAL1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := walPath(dir, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		state := make(map[string]*Channel)
		n := replayWAL(path, state)
		if n < 0 || n > len(data) {
			t.Fatalf("replayed %d records from %d bytes", n, len(data))
		}
	})
}

// FuzzDecodeRecord throws arbitrary bytes at the record decoder: no
// panics, and anything accepted must re-encode byte-stably (the same
// contract the wire payloads honor).
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range testRecords() {
		f.Add(appendRecord(nil, rec))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(OpMeta)})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		b1 := appendRecord(nil, rec)
		rec2, err := decodeRecord(b1)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		b2 := appendRecord(nil, rec2)
		if string(b1) != string(b2) {
			t.Fatal("record encoding not byte-stable")
		}
	})
}

// withMagic returns a copy of a snapshot file with its magic replaced.
func withMagic(snap []byte, magic string) []byte {
	out := append([]byte(nil), snap...)
	copy(out, magic)
	return out
}

// TestDecodeSnapshotRejectsRetiredMagics pins the single snapshot format:
// an otherwise intact file (valid CRC, well-formed body) under the retired
// v1 or v2 magic is rejected like any other unknown magic.
func TestDecodeSnapshotRejectsRetiredMagics(t *testing.T) {
	snap := encodeSnapshot(7, imageSlice(applyAll(testRecords())))
	if _, _, err := decodeSnapshot(snap); err != nil {
		t.Fatalf("current snapshot rejected: %v", err)
	}
	for _, magic := range []string{"CORSNP1\n", "CORSNP2\n"} {
		if _, _, err := decodeSnapshot(withMagic(snap, magic)); err == nil {
			t.Fatalf("snapshot with retired magic %q decoded", magic)
		}
	}
}

// FuzzDecodeSnapshot exercises snapshot validation with arbitrary bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	state := applyAll(testRecords())
	f.Add(encodeSnapshot(3, imageSlice(state)))
	f.Add(withMagic(encodeSnapshot(3, imageSlice(state)), "CORSNP2\n"))
	f.Add(withMagic(encodeSnapshot(3, imageSlice(state)), "CORSNP1\n"))
	f.Add([]byte("CORSNP1\n"))
	f.Add([]byte("CORSNP2\n"))
	f.Add([]byte("CORSNP3\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, channels, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		// Accepted snapshots must re-encode to an equally valid file.
		re := encodeSnapshot(gen, channels)
		if _, _, err := decodeSnapshot(re); err != nil {
			t.Fatalf("re-encode of accepted snapshot rejected: %v", err)
		}
	})
}

// neutralRecord re-asserts part of ch as it stands — the version, the
// owner epoch, or the metadata with the subscriber set in a shuffled
// order — the shape an owner's heartbeat push takes. Applying it mostly
// leaves the image as it is; a replacement of the set also prunes lease
// marks of clients outside it, and an empty replacement resets a
// counted-only total.
func neutralRecord(rng *rand.Rand, ch *Channel) Record {
	switch rng.Intn(3) {
	case 0:
		return Record{Op: OpVersion, URL: ch.URL, Version: uint64(rng.Int63n(int64(ch.Version) + 1))}
	case 1:
		return Record{Op: OpOwnerEpoch, URL: ch.URL, OwnerEpoch: uint64(rng.Int63n(int64(ch.OwnerEpoch) + 1))}
	}
	subs := append([]Sub(nil), ch.Subs...)
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return Record{
		Op: OpMeta, URL: ch.URL, Owner: ch.Owner, Replica: ch.Replica,
		Level: ch.Level, Epoch: ch.Epoch, Version: ch.Version, Count: ch.Count,
		SizeBytes: ch.SizeBytes, IntervalSec: ch.IntervalSec,
		ReplaceSubs: len(ch.Subs) > 0 || rng.Intn(2) == 0, Subs: subs,
	}
}

// perturb changes one field of a re-assertion, so the store must tell
// a record that changes one thing from one that changes nothing.
func perturb(rng *rand.Rand, rec *Record) {
	switch rng.Intn(10) {
	case 0:
		rec.Owner = !rec.Owner
	case 1:
		rec.Replica = !rec.Replica
	case 2:
		rec.Level++
	case 3:
		rec.Epoch++
	case 4:
		rec.Version++
		rec.OwnerEpoch++
	case 5:
		rec.SizeBytes++
	case 6:
		rec.IntervalSec += 0.5
	case 7:
		rec.Count++
		rec.ReplaceSubs = false
	case 8:
		if len(rec.Subs) > 1 {
			rec.Subs[0] = rec.Subs[1] // same length, one client twice
		}
	default:
		if len(rec.Subs) > 0 {
			rec.Subs[0].EntryEndpoint = "elsewhere:1"
		}
	}
}

// randomRecord draws one mutation over a small space of channels,
// clients and field values, so records collide often.
func randomRecord(rng *rand.Rand) Record {
	url := fmt.Sprintf("http://p/%d", rng.Intn(3))
	client := func() Sub {
		s := sub(rng.Intn(8))
		if rng.Intn(4) == 0 {
			s.EntryEndpoint = "moved:1" // the same client through another entry
		}
		return s
	}
	switch rng.Intn(6) {
	case 0:
		return Record{Op: OpSubscribe, URL: url, Sub: client()}
	case 1:
		return Record{Op: OpUnsubscribe, URL: url, Sub: Sub{Client: client().Client}}
	case 2:
		rec := Record{
			Op: OpMeta, URL: url, Owner: rng.Intn(2) == 0, Replica: rng.Intn(2) == 0,
			Level: rng.Intn(3), Epoch: uint64(rng.Intn(3)), Version: uint64(rng.Intn(10)),
			Count: rng.Intn(4), SizeBytes: 512 * rng.Intn(2), IntervalSec: 1.5 * float64(rng.Intn(2)),
			ReplaceSubs: rng.Intn(2) == 0,
		}
		if rec.ReplaceSubs {
			for i := rng.Intn(5); i > 0; i-- {
				rec.Subs = append(rec.Subs, client())
			}
		}
		return rec
	case 3:
		return Record{Op: OpVersion, URL: url, Version: uint64(rng.Intn(10))}
	case 4:
		return Record{Op: OpOwnerEpoch, URL: url, OwnerEpoch: uint64(rng.Intn(5))}
	default:
		l := Lease{Client: client().Client, UnixNano: int64(1 + rng.Intn(3))}
		if rng.Intn(3) == 0 {
			l.UnixNano = 0 // a lease clear
		}
		return Record{Op: OpLease, URL: url, Lease: l}
	}
}

// sortedSubs returns state with every channel's subscriber set in
// client order: an elided re-assertion keeps the set's order where the
// applied one would have reordered it, and nothing reads the order.
func sortedSubs(state map[string]*Channel) map[string]*Channel {
	out := make(map[string]*Channel, len(state))
	for _, c := range imageSlice(state) {
		c := c
		sort.Slice(c.Subs, func(i, j int) bool { return c.Subs[i].Client < c.Subs[j].Client })
		out[c.URL] = &c
	}
	return out
}

// TestElisionKeepsRecoveredImage is the elision property: random record
// histories laced with image-neutral re-assertions, some with one field
// changed, recover, through the
// store, to the image that applying every record in order builds —
// whether the store journaled a record or dropped it — and the store
// does drop some.
func TestElisionKeepsRecoveredImage(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, _ := openT(t, dir, Options{CommitWindow: -1})
		want := make(map[string]*Channel)
		appended := 0
		for i := 0; i < 200; i++ {
			rec := randomRecord(rng)
			if ch := want[rec.URL]; ch != nil && rng.Intn(2) == 0 {
				rec = neutralRecord(rng, ch)
				if rng.Intn(3) == 0 {
					perturb(rng, &rec)
				}
			}
			rec.apply(want)
			s.Append(rec)
			appended++
		}
		context := fmt.Sprintf("seed %d", seed)
		live := make(map[string]*Channel)
		for _, c := range s.Channels() {
			c := c
			live[c.URL] = &c
		}
		channelsEqual(t, sortedSubs(live), sortedSubs(want), context+" live image")
		if journaled := s.Stats().RecordsSinceSnapshot; journaled >= appended {
			t.Fatalf("%s: journaled %d of %d records, want some dropped", context, journaled, appended)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, recovered := openT(t, dir, Options{})
		got := make(map[string]*Channel)
		for _, c := range recovered {
			c := c
			got[c.URL] = &c
		}
		channelsEqual(t, sortedSubs(got), sortedSubs(want), context+" recovered image")
		s.Close()
	}
}
