package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// walMagic and snapMagic open every WAL and snapshot file; a file whose
// first eight bytes differ is ignored by recovery.
const (
	walMagic  = "CORWAL1\n"
	snapMagic = "CORSNP3\n"
)

// MaxRecordBytes bounds one WAL frame payload. A length prefix beyond it
// is treated as corruption and ends replay; legitimate records (a channel
// meta with a full subscriber set) stay far below it.
const MaxRecordBytes = 16 << 20

// castagnoli is the CRC-32C table shared by WAL frames and snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderLen is the fixed per-frame prefix: u32 length + u32 CRC.
const frameHeaderLen = 8

// appendFrame appends rec to dst as one WAL frame: the record is encoded
// in place after room for the frame header, which is filled in after.
func appendFrame(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = appendRecord(append(dst, make([]byte, frameHeaderLen)...), rec)
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// appendWALHeader writes the file header of a generation-gen WAL.
func appendWALHeader(dst []byte, gen uint64) []byte {
	dst = append(dst, walMagic...)
	return binary.AppendUvarint(dst, gen)
}

// walFile is an open, append-only log.
type walFile struct {
	f     *os.File
	path  string
	gen   uint64
	bytes int64 // file size, header included (observability)
}

// createWAL creates (truncating any leftover) the generation-gen log and
// durably writes its header.
func createWAL(path string, gen uint64) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	header := appendWALHeader(nil, gen)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walFile{f: f, path: path, gen: gen, bytes: int64(len(header))}, nil
}

// commit appends buffered frames and fsyncs — one group commit.
func (w *walFile) commit(frames []byte) error {
	if len(frames) == 0 {
		return nil
	}
	n, err := w.f.Write(frames)
	w.bytes += int64(n)
	if err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	return nil
}

func (w *walFile) close() error { return w.f.Close() }

// replayWAL reads a log file and applies every intact record to state.
// Damage — a bad header, a torn or corrupt frame — ends replay at the
// last intact record without error: recovering the prefix is the contract
// (doc.go). It returns how many records were applied.
func replayWAL(path string, state map[string]*Channel) (records int) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	if len(buf) < len(walMagic) || string(buf[:len(walMagic)]) != walMagic {
		return 0
	}
	buf = buf[len(walMagic):]
	_, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0
	}
	buf = buf[n:]
	for len(buf) >= frameHeaderLen {
		length := binary.LittleEndian.Uint32(buf[0:4])
		sum := binary.LittleEndian.Uint32(buf[4:8])
		if length > MaxRecordBytes || uint64(length) > uint64(len(buf)-frameHeaderLen) {
			return records // torn or hostile final frame
		}
		payload := buf[frameHeaderLen : frameHeaderLen+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return records // corruption; everything after is suspect
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return records // framed but malformed: same treatment
		}
		rec.apply(state)
		records++
		buf = buf[frameHeaderLen+int(length):]
	}
	return records
}
