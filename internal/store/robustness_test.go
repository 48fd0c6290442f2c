package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"testing"
	"time"
)

// buildWAL writes a generation-1 WAL containing recs and returns the file
// bytes plus the byte offset at which each record's frame ends.
func buildWAL(recs []Record) (buf []byte, frameEnds []int) {
	buf = appendWALHeader(nil, 1)
	for _, rec := range recs {
		buf = appendFrame(buf, appendRecord(nil, rec))
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
	valid := appendFrame(appendWALHeader(nil, 1), appendRecord(nil, subscribeRec("http://a", 1)))
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
