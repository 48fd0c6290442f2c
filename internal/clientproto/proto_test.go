package clientproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// everyFrame is one instance of each frame type with every field set.
func everyFrame() []Frame {
	return []Frame{
		&Login{ReqID: 7, Handle: "alice", ResumeToken: []byte{1, 2, 3}},
		&Login{ReqID: 1, Handle: "bob"},
		&Subscribe{ReqID: 9, URL: "http://example.com/feed.xml"},
		&Unsubscribe{ReqID: 10, URL: "http://example.com/feed.xml"},
		&Ping{ReqID: 11},
		&Ack{ReqID: 7, Token: []byte{4, 5, 6, 7}},
		&Ack{ReqID: 9},
		&Nak{ReqID: 10, Reason: "handle in use"},
		&Notify{Channel: "http://x/f.xml", Version: 42, Diff: "CORONA-DIFF\n+line",
			At: time.Unix(1700000000, 123456789)},
		&ServerInfo{
			Node:  "10.0.0.1:9001",
			Peers: []string{"10.0.0.2:9001", "10.0.0.3:9001"},
		},
		&ServerInfo{Node: "10.0.0.1:9001"},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range everyFrame() {
		wire := AppendFrame(nil, f)
		n := binary.BigEndian.Uint32(wire[:4])
		if int(n) != len(wire)-4 {
			t.Fatalf("%T: length prefix %d, body %d", f, n, len(wire)-4)
		}
		got, err := DecodeFrame(wire[4:])
		if err != nil {
			t.Fatalf("%T: decode: %v", f, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, f)
		}
	}
}

func TestReadWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	frames := everyFrame()
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream round trip mismatch: got %#v want %#v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("read past end: %v, want EOF", err)
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	// Truncation at every byte boundary of every frame must error.
	for _, f := range everyFrame() {
		body := AppendFrame(nil, f)[4:]
		for cut := 0; cut < len(body); cut++ {
			if _, err := DecodeFrame(body[:cut]); err == nil {
				t.Fatalf("%T truncated to %d bytes decoded", f, cut)
			}
		}
		// Trailing garbage is a framing error too.
		if _, err := DecodeFrame(append(append([]byte(nil), body...), 0xFF)); err == nil {
			t.Fatalf("%T with trailing byte decoded", f)
		}
	}
	if _, err := DecodeFrame([]byte{0x7F, 1, 2}); err == nil {
		t.Fatal("unknown frame type decoded")
	}
	// The retired lease-refresh frame (0x05: req, one URL) is unknown too.
	if _, err := DecodeFrame([]byte{0x05, 12, 1, 1, 'u'}); err == nil {
		t.Fatal("retired lease-refresh frame decoded")
	}
	if _, err := DecodeFrame(nil); err == nil {
		t.Fatal("empty body decoded")
	}
	// A hostile peer-list count claiming more entries than bytes.
	si := AppendFrame(nil, &ServerInfo{Node: "x"})[4:]
	hostile := append([]byte{si[0]}, si[1:3]...) // type + node "x"
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	if _, err := DecodeFrame(hostile); err == nil {
		t.Fatal("hostile list count decoded")
	}
}

func TestReadFrameBoundsLength(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrame+1)
	buf.Write(lenBuf[:])
	buf.Write(make([]byte, 64))
	if _, err := ReadFrame(&buf); err != ErrFrame {
		t.Fatalf("oversize frame: %v, want ErrFrame", err)
	}
	binary.BigEndian.PutUint32(lenBuf[:], 0)
	if _, err := ReadFrame(bytes.NewReader(lenBuf[:])); err != ErrFrame {
		t.Fatal("zero-length frame accepted")
	}
}

func TestHelloNegotiation(t *testing.T) {
	type res struct{ err error }
	// hello runs the server side against a client that sends one byte,
	// returning the server's reply byte and result.
	hello := func(clientByte byte) (byte, error) {
		cEnd, sEnd := net.Pipe()
		defer cEnd.Close()
		defer sEnd.Close()
		srv := make(chan res, 1)
		go func() { srv <- res{Negotiate(sEnd)} }()
		cEnd.Write([]byte{clientByte})
		var reply [1]byte
		io.ReadFull(cEnd, reply[:])
		return reply[0], (<-srv).err
	}

	// The SDK's own hello is echoed, on both sides.
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()
	srv := make(chan res, 1)
	go func() { srv <- res{Negotiate(sEnd)} }()
	if err := Hello(cEnd); err != nil {
		t.Fatalf("client hello: %v", err)
	}
	if r := <-srv; r.err != nil {
		t.Fatalf("server hello: %v", r.err)
	}

	// Any other byte — an older or newer version, or 0 — is refused with
	// a 0 reply: the check is an exact match, not a negotiation. Version
	// 4 clients, which still send the retired lease-refresh frame, fail
	// here.
	for _, b := range []byte{0, 1, 2, 3, 4, Version + 1, 0xFF} {
		reply, err := hello(b)
		if reply != 0 || err == nil {
			t.Fatalf("hello %d: reply %d err %v, want reply 0 and an error", b, reply, err)
		}
	}

	// A client whose hello the server refuses reports it.
	cEnd2, sEnd2 := net.Pipe()
	defer cEnd2.Close()
	defer sEnd2.Close()
	go func() {
		var b [1]byte
		io.ReadFull(sEnd2, b[:])
		sEnd2.Write([]byte{0})
	}()
	if err := Hello(cEnd2); err == nil {
		t.Fatal("client accepted a 0 reply")
	}
}

// FuzzDecodeFrame feeds the decoder hostile bodies: it must reject or
// round-trip, never panic, and an accepted frame must re-encode and
// decode to the same value (the canonicalization property the server
// relies on when it drops connections on ErrFrame).
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range everyFrame() {
		f.Add(AppendFrame(nil, fr)[4:])
	}
	f.Add([]byte{TypeNotify})
	f.Add([]byte{TypeServerInfo, 0xFF, 0xFF, 0xFF})
	// ServerInfo followed by the retired fan-out and commit-latency
	// extension blocks: trailing bytes, now a framing error.
	si := AppendFrame(nil, &ServerInfo{Node: "10.0.0.1:9001"})[4:]
	f.Add(append(append([]byte(nil), si...), 12, 4, 3, 2, 1, 9))
	f.Add(append(append([]byte(nil), si...), 12, 4, 3, 2, 1, 9, 3, 0, 5, 1))
	// Version-4 lease-refresh bodies (type 0x05: req, URL count, URLs):
	// the frame is retired, so its type is unknown.
	f.Add([]byte{0x05, 12, 2, 3, 'a', '/', 'b', 1, 'c'})
	f.Add([]byte{0x05, 13, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := DecodeFrame(body)
		if err != nil {
			return
		}
		wire := AppendFrame(nil, fr)
		again, err := DecodeFrame(wire[4:])
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("re-encode changed value: %#v vs %#v", fr, again)
		}
	})
}
