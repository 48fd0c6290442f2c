package core

// Property tests for the native binary payload path: for every Corona
// message type, the binary encoding must round-trip to the original
// struct and re-encode byte-stably. Messages are exercised through the
// codec envelope, the way they actually reach the wire, including lazy
// materialization and verbatim re-encoding of forwarded payloads.

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"corona/internal/codec"
	"corona/internal/honeycomb"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/wirebin"
)

// randString draws a printable string, sometimes empty, occasionally long
// (diff-sized).
func randString(rng *rand.Rand) string {
	n := rng.Intn(24)
	if rng.Intn(10) == 0 {
		n = 0
	} else if rng.Intn(10) == 0 {
		n = 2000 + rng.Intn(2000)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + rng.Intn(95))
	}
	return string(b)
}

func randAddr(rng *rand.Rand) pastry.Addr {
	return pastry.Addr{ID: ids.Random(rng), Endpoint: randString(rng)}
}

// randFloat draws finite floats across magnitudes (JSON cannot carry NaN
// or Inf, and Corona's estimators never produce them).
func randFloat(rng *rand.Rand) float64 {
	f := math.Exp(rng.Float64()*40-20) * float64(rng.Intn(3)-1)
	return f
}

func randClusterSet(rng *rand.Rand) *honeycomb.ClusterSet {
	cs := honeycomb.NewClusterSet(16, 3)
	for i, n := 0, rng.Intn(30); i < n; i++ {
		cs.Add(honeycomb.ChannelFactors{
			Q:      rng.Float64() * 500,
			S:      rng.Float64() + 0.01,
			U:      rng.Float64() * 1e5,
			Level:  rng.Intn(4),
			Orphan: rng.Intn(6) == 0,
		})
	}
	return cs
}

func randPollCtl(rng *rand.Rand) *pollCtlMsg {
	return &pollCtlMsg{
		URL:         randString(rng),
		Level:       rng.Intn(6) - 1,
		Epoch:       rng.Uint64() >> uint(rng.Intn(64)),
		Q:           rng.Intn(100000),
		SizeBytes:   rng.Intn(1 << 20),
		IntervalSec: randFloat(rng),
	}
}

func randUpdate(rng *rand.Rand) *updateMsg {
	return &updateMsg{
		URL:        randString(rng),
		Version:    rng.Uint64() >> uint(rng.Intn(64)),
		Diff:       randString(rng),
		Bytes:      rng.Intn(1 << 20),
		OwnerEpoch: rng.Uint64() >> uint(rng.Intn(64)),
		Owner:      randAddr(rng),
	}
}

func randReplDelta(rng *rand.Rand) *replDeltaMsg {
	return &replDeltaMsg{
		URL:        randString(rng),
		OwnerEpoch: rng.Uint64() >> uint(rng.Intn(64)),
		Seq:        rng.Uint64() >> uint(rng.Intn(64)),
		Digest:     rng.Uint64(),
		Client:     randString(rng),
		Entry:      randAddr(rng),
		Remove:     rng.Intn(2) == 0,
	}
}

// randReplBeat draws a heartbeat, or one time in four a resync request,
// whose entries carry only URLs.
func randReplBeat(rng *rand.Rand) *replBeatMsg {
	m := &replBeatMsg{Resync: rng.Intn(4) == 0}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		e := replBeatEntry{URL: randString(rng)}
		if !m.Resync {
			e.OwnerEpoch = rng.Uint64() >> uint(rng.Intn(64))
			e.Seq = rng.Uint64() >> uint(rng.Intn(64))
			e.Digest = rng.Uint64()
			e.Count = rng.Intn(100000)
			e.LastVersion = rng.Uint64() >> uint(rng.Intn(64))
			e.Level = rng.Intn(6) - 1
			e.Epoch = rng.Uint64() >> uint(rng.Intn(64))
			e.SizeBytes = rng.Intn(1 << 20)
			e.IntervalSec = randFloat(rng)
		}
		m.Channels = append(m.Channels, e)
	}
	return m
}

// payloadGenerators builds one random payload per message type, including
// the wedgeFwd wrapper in each of its shapes.
var payloadGenerators = map[string]func(rng *rand.Rand) pastry.Payload{
	msgSubscribe: func(rng *rand.Rand) pastry.Payload {
		// Remove set is an unsubscribe, which travels as msgSubscribe.
		return &subscribeMsg{URL: randString(rng), Client: randString(rng), Entry: randAddr(rng), Remove: rng.Intn(2) == 1}
	},
	msgReplicate: func(rng *rand.Rand) pastry.Payload {
		m := &replicateMsg{
			URL:         randString(rng),
			Count:       rng.Intn(1000),
			SizeBytes:   rng.Intn(1 << 20),
			IntervalSec: randFloat(rng),
			LastVersion: rng.Uint64() >> uint(rng.Intn(64)),
			Level:       rng.Intn(5),
			Epoch:       rng.Uint64() >> uint(rng.Intn(64)),
			OwnerEpoch:  rng.Uint64() >> uint(rng.Intn(64)),
			FromOwner:   rng.Intn(2) == 1,
			Seq:         rng.Uint64() >> uint(rng.Intn(64)),
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			m.Subscribers = append(m.Subscribers, replicatedSub{Client: randString(rng), Entry: randAddr(rng)})
		}
		return m
	},
	msgReplDelta: func(rng *rand.Rand) pastry.Payload { return randReplDelta(rng) },
	msgReplBeat:  func(rng *rand.Rand) pastry.Payload { return randReplBeat(rng) },
	msgPollCtl:   func(rng *rand.Rand) pastry.Payload { return randPollCtl(rng) },
	msgUpdate:    func(rng *rand.Rand) pastry.Payload { return randUpdate(rng) },
	msgMaintain: func(rng *rand.Rand) pastry.Payload {
		m := &maintainMsg{Row: rng.Intn(10)}
		if rng.Intn(8) != 0 {
			m.Clusters = randClusterSet(rng)
		}
		return m
	},
	msgWedgeFwd: func(rng *rand.Rand) pastry.Payload {
		m := &wedgeFwdMsg{URL: randString(rng), Level: rng.Intn(5)}
		switch rng.Intn(3) {
		case 0:
			m.InnerType = msgPollCtl
			m.PollCtl = randPollCtl(rng)
		case 1:
			m.InnerType = msgUpdate
			m.Update = randUpdate(rng)
		default:
			m.InnerType = msgUpdate // dead-end shape: no wrapped payload
		}
		return m
	},
	msgLease: func(rng *rand.Rand) pastry.Payload {
		return &leaseMsg{URL: randString(rng), Client: randString(rng), Entry: randAddr(rng)}
	},
	msgNotifyBatch: func(rng *rand.Rand) pastry.Payload {
		m := &notifyBatchMsg{URL: randString(rng), Version: rng.Uint64() >> uint(rng.Intn(64)), Diff: randString(rng), At: rng.Int63() >> uint(rng.Intn(63))}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			m.Clients = append(m.Clients, randString(rng))
		}
		return m
	},
	msgDelegate: func(rng *rand.Rand) pastry.Payload {
		m := &delegateMsg{
			URL:        randString(rng),
			OwnerEpoch: rng.Uint64() >> uint(rng.Intn(64)),
			Owner:      randAddr(rng),
			Seq:        rng.Uint64() >> uint(rng.Intn(64)),
			Replace:    rng.Intn(2) == 0,
			Revoke:     rng.Intn(4) == 0,
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			m.Subs = append(m.Subs, replicatedSub{Client: randString(rng), Entry: randAddr(rng)})
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			m.Removed = append(m.Removed, randString(rng))
		}
		return m
	},
	msgDelegateNotify: func(rng *rand.Rand) pastry.Payload {
		return &delegateNotifyMsg{
			URL:        randString(rng),
			Version:    rng.Uint64() >> uint(rng.Intn(64)),
			Diff:       randString(rng),
			OwnerEpoch: rng.Uint64() >> uint(rng.Intn(64)),
			At:         rng.Int63() >> uint(rng.Intn(63)),
		}
	},
	msgLeaseExpire: func(rng *rand.Rand) pastry.Payload {
		m := &leaseExpireMsg{URL: randString(rng), Entry: randAddr(rng)}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			m.Clients = append(m.Clients, randString(rng))
		}
		return m
	},
}

func wireMessage(msgType string, payload pastry.Payload, rng *rand.Rand) pastry.Message {
	return pastry.Message{
		Type:    msgType,
		Key:     ids.Random(rng),
		From:    randAddr(rng),
		Hops:    rng.Intn(10),
		Cover:   rng.Intn(5),
		Payload: payload,
	}
}

// decodeAndMaterialize runs a body back through the codec the way the
// overlay does on local delivery: the envelope, then the payload, into a
// fresh value of like's type, as the handler of the message's type
// decodes it. The message returned is the one that handler sees.
func decodeAndMaterialize(t *testing.T, body []byte, like pastry.Payload) pastry.Message {
	t.Helper()
	msg, err := codec.Decode(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	p := reflect.New(reflect.TypeOf(like).Elem()).Interface().(pastry.Payload)
	raw, _ := msg.RawPayload()
	if err := p.DecodeBinary(raw); err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return pastry.Message{Type: msg.Type, Key: msg.Key, From: msg.From, Hops: msg.Hops, Cover: msg.Cover, Payload: p}
}

// TestBinaryPayloadRoundTrip is the core round-trip property: for every
// message type, sending through the codec yields exactly the
// envelope and payload that were sent.
func TestBinaryPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for msgType, gen := range payloadGenerators {
		t.Run(msgType, func(t *testing.T) {
			for i := 0; i < 40; i++ {
				msg := wireMessage(msgType, gen(rng), rng)
				body, err := codec.Encode(msg)
				if err != nil {
					t.Fatal(err)
				}
				viaBinary := decodeAndMaterialize(t, body, msg.Payload)
				if viaBinary.Type != msg.Type || viaBinary.Key != msg.Key ||
					viaBinary.From != msg.From || viaBinary.Hops != msg.Hops ||
					viaBinary.Cover != msg.Cover {
					t.Fatalf("envelope changed by round trip:\n got  %+v\n want %+v", viaBinary, msg)
				}
				if !reflect.DeepEqual(viaBinary.Payload, msg.Payload) {
					t.Fatalf("payload changed by round trip:\n got  %#v\n want %#v", viaBinary.Payload, msg.Payload)
				}
			}
		})
	}
}

// TestBinaryPayloadByteStable pins the two re-encode paths to the exact
// original bytes: a forwarded message (raw blob retained, never decoded)
// and a materialized-then-re-sent message must both reproduce the
// encoding, so any hop's output is indistinguishable from the origin's.
func TestBinaryPayloadByteStable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for msgType, gen := range payloadGenerators {
		t.Run(msgType, func(t *testing.T) {
			for i := 0; i < 40; i++ {
				msg := wireMessage(msgType, gen(rng), rng)
				body, err := codec.Encode(msg)
				if err != nil {
					t.Fatal(err)
				}
				// Zero-copy forward: decode, re-encode without materializing.
				fwd, err := codec.Decode(body)
				if err != nil {
					t.Fatal(err)
				}
				fwdBody, err := codec.Encode(fwd)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fwdBody, body) {
					t.Fatal("verbatim forward re-encode not byte-identical")
				}
				// Materialized re-send: decode, materialize, re-encode.
				mat := decodeAndMaterialize(t, body, msg.Payload)
				matBody, err := codec.Encode(mat)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(matBody, body) {
					t.Fatal("materialized re-encode not byte-identical")
				}
			}
		})
	}
}

// TestForwardedPayloadStaysLazy pins the zero-copy property itself: a
// decoded message exposes its raw payload blob, and re-encoding consumed
// it verbatim rather than materializing a struct.
func TestForwardedPayloadStaysLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	msg := wireMessage(msgUpdate, randUpdate(rng), rng)
	body, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil {
		t.Fatalf("payload decoded eagerly: %#v", got.Payload)
	}
	raw, ok := got.RawPayload()
	if !ok || len(raw) == 0 {
		t.Fatalf("raw payload not retained: ok=%v len=%d", ok, len(raw))
	}
	want, err := msg.Payload.(*updateMsg).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("retained blob differs from the native payload encoding")
	}
}

// TestReplicateTravelsNatively pins replicateMsg's retained blob to its
// own AppendBinary encoding: restart reconciliation re-pushes whole owner
// states through it.
func TestReplicateTravelsNatively(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	msg := wireMessage(msgReplicate, payloadGenerators[msgReplicate](rng), rng)
	body, err := codec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := got.RawPayload()
	if !ok || len(raw) == 0 {
		t.Fatalf("replicate should travel natively: ok=%v len=%d", ok, len(raw))
	}
	want, err := msg.Payload.(*replicateMsg).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("retained blob differs from the native replicate encoding")
	}
}

// fuzzTargets constructs one empty payload of each natively-encoded type.
var fuzzTargets = []func() pastry.Payload{
	func() pastry.Payload { return &subscribeMsg{} },
	func() pastry.Payload { return &pollCtlMsg{} },
	func() pastry.Payload { return &updateMsg{} },
	func() pastry.Payload { return &maintainMsg{} },
	func() pastry.Payload { return &wedgeFwdMsg{} },
	func() pastry.Payload { return &replicateMsg{} },
	func() pastry.Payload { return &leaseMsg{} },
	func() pastry.Payload { return &notifyBatchMsg{} },
	func() pastry.Payload { return &delegateMsg{} },
	func() pastry.Payload { return &delegateNotifyMsg{} },
	func() pastry.Payload { return &replDeltaMsg{} },
	func() pastry.Payload { return &replBeatMsg{} },
	func() pastry.Payload { return &leaseExpireMsg{} },
}

// FuzzBinaryPayloadDecode throws arbitrary bytes at every native decoder:
// none may panic, and anything accepted must re-encode byte-stably.
func FuzzBinaryPayloadDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	seedFor := func(m pastry.Payload) []byte {
		b, _ := m.AppendBinary(nil)
		return b
	}
	f.Add(uint8(0), seedFor(&subscribeMsg{URL: "u", Client: "c", Entry: randAddr(rng)}))
	f.Add(uint8(1), seedFor(randPollCtl(rng)))
	f.Add(uint8(2), seedFor(randUpdate(rng)))
	f.Add(uint8(12), seedFor(&leaseExpireMsg{URL: "u", Entry: randAddr(rng), Clients: []string{"a", "b"}}))
	f.Add(uint8(3), seedFor(&maintainMsg{Row: 2, Clusters: randClusterSet(rng)}))
	f.Add(uint8(4), seedFor(&wedgeFwdMsg{URL: "u", InnerType: msgUpdate, Update: randUpdate(rng)}))
	f.Add(uint8(5), seedFor(payloadGenerators[msgReplicate](rng).(*replicateMsg)))
	f.Add(uint8(6), seedFor(&leaseMsg{URL: "u", Client: "c", Entry: randAddr(rng)}))
	f.Add(uint8(7), seedFor(payloadGenerators[msgNotifyBatch](rng).(*notifyBatchMsg)))
	f.Add(uint8(8), seedFor(payloadGenerators[msgDelegate](rng).(*delegateMsg)))
	f.Add(uint8(9), seedFor(&delegateNotifyMsg{URL: "u", Version: 7, Diff: "d", OwnerEpoch: 2, At: 12345}))
	f.Add(uint8(4), []byte{})
	f.Add(uint8(10), seedFor(randReplDelta(rng)))
	f.Add(uint8(11), seedFor(&replBeatMsg{Channels: []replBeatEntry{{URL: "u", OwnerEpoch: 3, Seq: 9, Digest: 1 << 63, Count: 2, Level: 1}}}))
	f.Add(uint8(11), seedFor(&replBeatMsg{Resync: true, Channels: []replBeatEntry{{URL: "u"}, {URL: "v"}}}))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		target := fuzzTargets[int(which)%len(fuzzTargets)]
		m := target()
		if err := m.DecodeBinary(data); err != nil {
			return
		}
		b1, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		m2 := target()
		if err := m2.DecodeBinary(b1); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		b2, err := m2.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("encoding not byte-stable")
		}
	})
}

// FuzzBinaryEnvelopeDecode drives the whole codec with arbitrary bodies:
// Decode, then decoding the payload as any message type's handler would,
// must never panic.
func FuzzBinaryEnvelopeDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	for msgType, gen := range payloadGenerators {
		if body, err := codec.Encode(wireMessage(msgType, gen(rng), rng)); err == nil {
			f.Add(body)
		}
	}
	// An update whose payload lost its native-binary flag: malformed.
	if body, err := codec.Encode(wireMessage(msgUpdate, randUpdate(rng), rng)); err == nil {
		body[0] &^= 1 << 2
		f.Add(body)
	}
	// Envelopes of the retired corona.report and corona.unsubscribe
	// types: a node with a handler for neither keeps the envelope and
	// never decodes the payload, as for a peer's newer type.
	for _, retired := range []string{"corona.report", "corona.unsubscribe"} {
		body, err := codec.Encode(wireMessage(msgSubscribe, payloadGenerators[msgSubscribe](rng), rng))
		if err != nil {
			f.Fatal(err)
		}
		msg, err := codec.Decode(body)
		if err != nil {
			f.Fatal(err)
		}
		msg.Type = retired
		if body, err = codec.Encode(msg); err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.Decode(data)
		if err != nil {
			return
		}
		raw, _ := msg.RawPayload()
		for _, target := range fuzzTargets {
			_ = target().DecodeBinary(raw)
		}
	})
}

// TestReplicationDecodersBoundCounts pins the allocation-bomb guard on
// the replication payloads: a list count claiming more entries than the
// remaining bytes could encode is rejected before anything is sized by
// it, at each decoder's own minimum entry size.
func TestReplicationDecodersBoundCounts(t *testing.T) {
	hostile := func(prefix []byte, count uint64, tail int) []byte {
		b := wirebin.AppendUvarint(prefix, count)
		return append(b, make([]byte, tail)...)
	}
	cases := []struct {
		name string
		m    pastry.Payload
		data []byte
	}{
		// 23 bytes cannot hold even one full heartbeat entry.
		{"heartbeat", &replBeatMsg{}, hostile([]byte{0}, 2, 23)},
		{"heartbeat-huge", &replBeatMsg{}, hostile([]byte{0}, 1<<40, 64)},
		{"resync", &replBeatMsg{}, hostile([]byte{1}, 1<<30, 16)},
		{"replicate", &replicateMsg{}, hostile(wirebin.AppendUvarint(wirebin.AppendString(nil, "u"), 1), 1<<30, 64)},
	}
	for _, c := range cases {
		if err := c.m.DecodeBinary(c.data); err == nil {
			t.Errorf("%s: hostile count decoded without error", c.name)
		}
	}
	// The bound is not stricter than the encoding: minimal entries decode.
	for _, m := range []pastry.Payload{
		&replBeatMsg{Channels: make([]replBeatEntry, 40)},
		&replBeatMsg{Resync: true, Channels: make([]replBeatEntry, 40)},
	} {
		b, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.DecodeBinary(b); err != nil {
			t.Fatalf("minimal %T did not decode: %v", m, err)
		}
	}
}
