package core

import (
	"encoding/binary"
	"fmt"

	"corona/internal/honeycomb"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/wirebin"
)

// Native binary wire forms for every Corona message payload — the
// AppendBinary/DecodeBinary contract of pastry.Payload, which every
// handler's payload type meets and is the only payload form on the wire.
//
// Conventions (package wirebin): uvarint for unsigned counters, zigzag
// svarint for int fields, length-prefixed strings, fixed 8-byte floats,
// one-byte bools. Addresses are a raw 20-byte identifier plus endpoint
// string. Every encoding is deterministic, so re-encoding a decoded
// payload reproduces the original bytes.

// appendFixed64 and readFixed64 carry a 64-bit digest as 8 fixed
// little-endian bytes: hash sums are uniformly large, so a varint would
// cost more.
func appendFixed64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func readFixed64(r *wirebin.Reader) uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// wireErr wraps a reader's latched error with the payload type.
func wireErr(what string, r *wirebin.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: decoding %s payload: %w", what, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("core: decoding %s payload: %d trailing bytes", what, r.Len())
	}
	return nil
}

// --- subscribeMsg (corona.subscribe) ------------------------------------

// AppendBinary implements pastry.Payload.
func (m *subscribeMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendString(dst, m.Client)
	dst = pastry.AppendAddr(dst, m.Entry)
	return wirebin.AppendBool(dst, m.Remove), nil
}

// DecodeBinary implements pastry.Payload.
func (m *subscribeMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Client = r.String()
	m.Entry = pastry.ReadAddr(r)
	m.Remove = r.Bool()
	return wireErr("subscribe", r)
}

// --- notifyBatchMsg (corona.notifybatch) ---------------------------------

// AppendBinary implements pastry.Payload.
func (m *notifyBatchMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendUvarint(dst, m.Version)
	dst = wirebin.AppendString(dst, m.Diff)
	dst = wirebin.AppendUvarint(dst, uint64(len(m.Clients)))
	for _, c := range m.Clients {
		dst = wirebin.AppendString(dst, c)
	}
	return wirebin.AppendUvarint(dst, uint64(m.At)), nil
}

// DecodeBinary implements pastry.Payload.
func (m *notifyBatchMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Version = r.Uvarint()
	m.Diff = r.String()
	// Each client handle costs at least its one length byte.
	n := r.ListLen(1)
	m.Clients = nil
	if n > 0 {
		m.Clients = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Clients = append(m.Clients, r.String())
		}
	}
	m.At = int64(r.Uvarint())
	return wireErr("notifybatch", r)
}

// --- delegateMsg (corona.delegate) ---------------------------------------

// AppendBinary implements pastry.Payload.
func (m *delegateMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendUvarint(dst, m.OwnerEpoch)
	dst = pastry.AppendAddr(dst, m.Owner)
	dst = wirebin.AppendUvarint(dst, m.Seq)
	dst = wirebin.AppendBool(dst, m.Replace)
	dst = wirebin.AppendBool(dst, m.Revoke)
	dst = wirebin.AppendUvarint(dst, uint64(len(m.Subs)))
	for _, s := range m.Subs {
		dst = wirebin.AppendString(dst, s.Client)
		dst = pastry.AppendAddr(dst, s.Entry)
	}
	dst = wirebin.AppendUvarint(dst, uint64(len(m.Removed)))
	for _, c := range m.Removed {
		dst = wirebin.AppendString(dst, c)
	}
	return dst, nil
}

// DecodeBinary implements pastry.Payload.
func (m *delegateMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.OwnerEpoch = r.Uvarint()
	m.Owner = pastry.ReadAddr(r)
	m.Seq = r.Uvarint()
	m.Replace = r.Bool()
	m.Revoke = r.Bool()
	// Each subscriber costs at least one length byte, the 20-byte entry
	// identifier, and one endpoint length byte.
	n := r.ListLen(ids.Bytes + 2)
	m.Subs = nil
	if n > 0 {
		m.Subs = make([]replicatedSub, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Subs = append(m.Subs, replicatedSub{Client: r.String(), Entry: pastry.ReadAddr(r)})
		}
	}
	n = r.ListLen(1)
	m.Removed = nil
	if n > 0 {
		m.Removed = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Removed = append(m.Removed, r.String())
		}
	}
	return wireErr("delegate", r)
}

// --- delegateNotifyMsg (corona.delegatenotify) ---------------------------

// AppendBinary implements pastry.Payload.
func (m *delegateNotifyMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendUvarint(dst, m.Version)
	dst = wirebin.AppendString(dst, m.Diff)
	dst = wirebin.AppendUvarint(dst, m.OwnerEpoch)
	return wirebin.AppendUvarint(dst, uint64(m.At)), nil
}

// DecodeBinary implements pastry.Payload.
func (m *delegateNotifyMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Version = r.Uvarint()
	m.Diff = r.String()
	m.OwnerEpoch = r.Uvarint()
	m.At = int64(r.Uvarint())
	return wireErr("delegatenotify", r)
}

// --- replicateMsg (corona.replicate) -------------------------------------

// AppendBinary implements pastry.Payload.
func (m *replicateMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendUvarint(dst, m.Seq)
	dst = wirebin.AppendUvarint(dst, uint64(len(m.Subscribers)))
	for _, s := range m.Subscribers {
		dst = wirebin.AppendString(dst, s.Client)
		dst = pastry.AppendAddr(dst, s.Entry)
	}
	dst = wirebin.AppendSint(dst, m.Count)
	dst = wirebin.AppendSint(dst, m.SizeBytes)
	dst = wirebin.AppendFloat64(dst, m.IntervalSec)
	dst = wirebin.AppendUvarint(dst, m.LastVersion)
	dst = wirebin.AppendSint(dst, m.Level)
	dst = wirebin.AppendUvarint(dst, m.Epoch)
	dst = wirebin.AppendUvarint(dst, m.OwnerEpoch)
	return wirebin.AppendBool(dst, m.FromOwner), nil
}

// DecodeBinary implements pastry.Payload.
func (m *replicateMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Seq = r.Uvarint()
	// Each subscriber costs at least one length byte, the 20-byte entry
	// identifier, and one endpoint length byte.
	n := r.ListLen(ids.Bytes + 2)
	m.Subscribers = nil
	if n > 0 {
		m.Subscribers = make([]replicatedSub, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Subscribers = append(m.Subscribers, replicatedSub{Client: r.String(), Entry: pastry.ReadAddr(r)})
		}
	}
	m.Count = r.Sint()
	m.SizeBytes = r.Sint()
	m.IntervalSec = r.Float64()
	m.LastVersion = r.Uvarint()
	m.Level = r.Sint()
	m.Epoch = r.Uvarint()
	m.OwnerEpoch = r.Uvarint()
	m.FromOwner = r.Bool()
	return wireErr("replicate", r)
}

// --- replDeltaMsg (corona.repldelta) ------------------------------------

// AppendBinary implements pastry.Payload.
func (m *replDeltaMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendUvarint(dst, m.OwnerEpoch)
	dst = wirebin.AppendUvarint(dst, m.Seq)
	dst = appendFixed64(dst, m.Digest)
	dst = wirebin.AppendString(dst, m.Client)
	dst = pastry.AppendAddr(dst, m.Entry)
	return wirebin.AppendBool(dst, m.Remove), nil
}

// DecodeBinary implements pastry.Payload.
func (m *replDeltaMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.OwnerEpoch = r.Uvarint()
	m.Seq = r.Uvarint()
	m.Digest = readFixed64(r)
	m.Client = r.String()
	m.Entry = pastry.ReadAddr(r)
	m.Remove = r.Bool()
	return wireErr("repldelta", r)
}

// --- replBeatMsg (corona.replbeat) ---------------------------------------

// replBeatEntryMin is the fewest bytes one heartbeat entry encodes to:
// one byte for each length and varint field plus the fixed 8-byte
// digest and interval. A resync request's entries are URLs alone.
const replBeatEntryMin = 8 + 8 + 8

// AppendBinary implements pastry.Payload.
func (m *replBeatMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendBool(dst, m.Resync)
	dst = wirebin.AppendUvarint(dst, uint64(len(m.Channels)))
	for i := range m.Channels {
		e := &m.Channels[i]
		dst = wirebin.AppendString(dst, e.URL)
		if m.Resync {
			continue
		}
		dst = wirebin.AppendUvarint(dst, e.OwnerEpoch)
		dst = wirebin.AppendUvarint(dst, e.Seq)
		dst = appendFixed64(dst, e.Digest)
		dst = wirebin.AppendSint(dst, e.Count)
		dst = wirebin.AppendUvarint(dst, e.LastVersion)
		dst = wirebin.AppendSint(dst, e.Level)
		dst = wirebin.AppendUvarint(dst, e.Epoch)
		dst = wirebin.AppendSint(dst, e.SizeBytes)
		dst = wirebin.AppendFloat64(dst, e.IntervalSec)
	}
	return dst, nil
}

// DecodeBinary implements pastry.Payload.
func (m *replBeatMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.Resync = r.Bool()
	minSize := replBeatEntryMin
	if m.Resync {
		minSize = 1 // a URL length byte
	}
	n := r.ListLen(minSize)
	m.Channels = nil
	if n > 0 {
		m.Channels = make([]replBeatEntry, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			e := replBeatEntry{URL: r.String()}
			if !m.Resync {
				e.OwnerEpoch = r.Uvarint()
				e.Seq = r.Uvarint()
				e.Digest = readFixed64(r)
				e.Count = r.Sint()
				e.LastVersion = r.Uvarint()
				e.Level = r.Sint()
				e.Epoch = r.Uvarint()
				e.SizeBytes = r.Sint()
				e.IntervalSec = r.Float64()
			}
			m.Channels = append(m.Channels, e)
		}
	}
	return wireErr("replbeat", r)
}

// --- pollCtlMsg (corona.pollctl) -----------------------------------------

// AppendBinary implements pastry.Payload.
func (m *pollCtlMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendSint(dst, m.Level)
	dst = wirebin.AppendUvarint(dst, m.Epoch)
	dst = wirebin.AppendSint(dst, m.Q)
	dst = wirebin.AppendSint(dst, m.SizeBytes)
	return wirebin.AppendFloat64(dst, m.IntervalSec), nil
}

// DecodeBinary implements pastry.Payload.
func (m *pollCtlMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Level = r.Sint()
	m.Epoch = r.Uvarint()
	m.Q = r.Sint()
	m.SizeBytes = r.Sint()
	m.IntervalSec = r.Float64()
	return wireErr("pollctl", r)
}

// --- updateMsg (corona.update) -------------------------------------------

// AppendBinary implements pastry.Payload.
func (m *updateMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendUvarint(dst, m.Version)
	dst = wirebin.AppendString(dst, m.Diff)
	dst = wirebin.AppendSint(dst, m.Bytes)
	dst = wirebin.AppendUvarint(dst, m.OwnerEpoch)
	return pastry.AppendAddr(dst, m.Owner), nil
}

// DecodeBinary implements pastry.Payload.
func (m *updateMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Version = r.Uvarint()
	m.Diff = r.String()
	m.Bytes = r.Sint()
	m.OwnerEpoch = r.Uvarint()
	m.Owner = pastry.ReadAddr(r)
	return wireErr("update", r)
}

// --- maintainMsg (corona.maintain) ---------------------------------------

// AppendBinary implements pastry.Payload. The cluster
// set travels in honeycomb's sparse binary form behind a presence byte.
func (m *maintainMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendSint(dst, m.Row)
	dst = wirebin.AppendBool(dst, m.Clusters != nil)
	if m.Clusters != nil {
		return m.Clusters.AppendBinary(dst)
	}
	return dst, nil
}

// DecodeBinary implements pastry.Payload.
func (m *maintainMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.Row = r.Sint()
	present := r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: decoding maintain payload: %w", err)
	}
	if !present {
		m.Clusters = nil
		if r.Len() != 0 {
			return fmt.Errorf("core: decoding maintain payload: %d trailing bytes", r.Len())
		}
		return nil
	}
	m.Clusters = new(honeycomb.ClusterSet)
	return m.Clusters.DecodeBinary(r.Take(r.Len()))
}

// --- leaseMsg (corona.lease) ---------------------------------------------

// AppendBinary implements pastry.Payload.
func (m *leaseMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendString(dst, m.Client)
	return pastry.AppendAddr(dst, m.Entry), nil
}

// DecodeBinary implements pastry.Payload.
func (m *leaseMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Client = r.String()
	m.Entry = pastry.ReadAddr(r)
	return wireErr("lease", r)
}

// --- leaseExpireMsg (corona.leaseexpire) ---------------------------------

// AppendBinary implements pastry.Payload.
func (m *leaseExpireMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = pastry.AppendAddr(dst, m.Entry)
	dst = wirebin.AppendUvarint(dst, uint64(len(m.Clients)))
	for _, c := range m.Clients {
		dst = wirebin.AppendString(dst, c)
	}
	return dst, nil
}

// DecodeBinary implements pastry.Payload.
func (m *leaseExpireMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Entry = pastry.ReadAddr(r)
	// Each client handle costs at least its one length byte.
	n := r.ListLen(1)
	m.Clients = nil
	if n > 0 {
		m.Clients = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Clients = append(m.Clients, r.String())
		}
	}
	return wireErr("leaseexpire", r)
}

// --- wedgeFwdMsg (corona.wedgefwd) ---------------------------------------

// Presence bits for wedgeFwdMsg's wrapped operation.
const (
	wedgeFwdHasPollCtl = 1 << 0
	wedgeFwdHasUpdate  = 1 << 1
)

// AppendBinary implements pastry.Payload; the wrapped
// operation nests the inner payload's own binary form, length-prefixed.
func (m *wedgeFwdMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendString(dst, m.URL)
	dst = wirebin.AppendSint(dst, m.Level)
	dst = wirebin.AppendString(dst, m.InnerType)
	var flags byte
	if m.PollCtl != nil {
		flags |= wedgeFwdHasPollCtl
	}
	if m.Update != nil {
		flags |= wedgeFwdHasUpdate
	}
	dst = append(dst, flags)
	var err error
	if m.PollCtl != nil {
		if dst, err = appendNested(dst, m.PollCtl); err != nil {
			return nil, err
		}
	}
	if m.Update != nil {
		if dst, err = appendNested(dst, m.Update); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendNested writes a length-prefixed inner payload encoding.
func appendNested(dst []byte, inner interface {
	AppendBinary([]byte) ([]byte, error)
}) ([]byte, error) {
	b, err := inner.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	return wirebin.AppendBytes(dst, b), nil
}

// DecodeBinary implements pastry.Payload.
func (m *wedgeFwdMsg) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	m.URL = r.String()
	m.Level = r.Sint()
	m.InnerType = r.String()
	flags := r.Byte()
	m.PollCtl, m.Update = nil, nil
	if flags&wedgeFwdHasPollCtl != 0 {
		m.PollCtl = new(pollCtlMsg)
		if err := m.PollCtl.DecodeBinary(r.Bytes()); err != nil {
			return err
		}
	}
	if flags&wedgeFwdHasUpdate != 0 {
		m.Update = new(updateMsg)
		if err := m.Update.DecodeBinary(r.Bytes()); err != nil {
			return err
		}
	}
	return wireErr("wedgefwd", r)
}
