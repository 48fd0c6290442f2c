package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"corona/internal/wirebin"
)

// appendChannel encodes one materialized channel image.
func appendChannel(dst []byte, ch Channel) []byte {
	dst = wirebin.AppendString(dst, ch.URL)
	var flags byte
	if ch.Owner {
		flags |= metaOwner
	}
	if ch.Replica {
		flags |= metaReplica
	}
	dst = append(dst, flags)
	dst = wirebin.AppendSint(dst, ch.Level)
	dst = wirebin.AppendUvarint(dst, ch.Epoch)
	dst = wirebin.AppendUvarint(dst, ch.Version)
	dst = wirebin.AppendSint(dst, ch.Count)
	dst = wirebin.AppendSint(dst, ch.SizeBytes)
	dst = wirebin.AppendFloat64(dst, ch.IntervalSec)
	dst = wirebin.AppendUvarint(dst, uint64(len(ch.Subs)))
	for _, s := range ch.Subs {
		dst = appendSub(dst, s)
	}
	dst = wirebin.AppendUvarint(dst, ch.OwnerEpoch)
	dst = wirebin.AppendUvarint(dst, uint64(len(ch.Leases)))
	for _, l := range ch.Leases {
		dst = wirebin.AppendString(dst, l.Client)
		dst = wirebin.AppendUvarint(dst, uint64(l.UnixNano))
	}
	return appendDelegates(dst, ch.Delegates)
}

// readChannel decodes one channel image written by appendChannel.
func readChannel(r *wirebin.Reader) Channel {
	var ch Channel
	ch.URL = r.String()
	flags := r.Byte()
	ch.Owner = flags&metaOwner != 0
	ch.Replica = flags&metaReplica != 0
	ch.Level = r.Sint()
	ch.Epoch = r.Uvarint()
	ch.Version = r.Uvarint()
	ch.Count = r.Sint()
	ch.SizeBytes = r.Sint()
	ch.IntervalSec = r.Float64()
	ch.Subs = readSubs(r)
	ch.OwnerEpoch = r.Uvarint()
	// Each lease costs at least one client length byte and one time byte.
	n := r.ListLen(2)
	if n > 0 {
		ch.Leases = make([]Lease, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			ch.Leases = append(ch.Leases, Lease{Client: r.String(), UnixNano: int64(r.Uvarint())})
		}
	}
	ch.Delegates = readDelegates(r)
	return ch
}

// encodeSnapshot renders the full snapshot file contents for gen.
func encodeSnapshot(gen uint64, channels []Channel) []byte {
	body := binary.AppendUvarint(nil, gen)
	body = binary.AppendUvarint(body, uint64(len(channels)))
	for _, ch := range channels {
		body = appendChannel(body, ch)
	}
	out := make([]byte, 0, len(snapMagic)+len(body)+4)
	out = append(out, snapMagic...)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
}

// decodeSnapshot parses and validates a snapshot file. Any damage —
// magic, CRC, or structure — rejects the whole file: unlike the WAL,
// a snapshot is atomic (it was written by rename) so partial recovery
// from one is never attempted. Only snapMagic is accepted.
func decodeSnapshot(buf []byte) (gen uint64, channels []Channel, err error) {
	if len(buf) < len(snapMagic)+4 || string(buf[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("store: snapshot magic mismatch")
	}
	body := buf[len(snapMagic) : len(buf)-4]
	sum := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, nil, fmt.Errorf("store: snapshot CRC mismatch")
	}
	r := wirebin.NewReader(body)
	gen = r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(len(body)) {
		return 0, nil, fmt.Errorf("store: snapshot header malformed")
	}
	channels = make([]Channel, 0, n)
	for i := uint64(0); i < n; i++ {
		channels = append(channels, readChannel(r))
		if r.Err() != nil {
			return 0, nil, fmt.Errorf("store: snapshot channel %d malformed: %w", i, r.Err())
		}
	}
	if r.Len() != 0 {
		return 0, nil, fmt.Errorf("store: snapshot has %d trailing bytes", r.Len())
	}
	return gen, channels, nil
}

// writeSnapshot durably writes snap-<gen> via temp file + rename + dir
// sync, so a crash leaves either the old directory state or the new one.
func writeSnapshot(dir string, gen uint64, channels []Channel) error {
	path := snapPath(dir, gen)
	tmp := path + ".tmp"
	buf := encodeSnapshot(gen, channels)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Failures are reported but non-fatal to callers on platforms
// where directories cannot be synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d", gen))
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d", gen))
}
