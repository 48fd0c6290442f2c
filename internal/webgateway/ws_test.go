package webgateway

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWSAccept(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	if got, want := wsAccept("dGhlIHNhbXBsZSBub25jZQ=="), "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="; got != want {
		t.Fatalf("wsAccept = %q, want %q", got, want)
	}
}

func TestUpgradeRejectsPlainGET(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/ws", nil)
	if _, _, err := upgradeWS(rec, req); !errors.Is(err, errNotWebSocket) {
		t.Fatalf("plain GET upgraded: %v", err)
	}
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
}

func TestUpgradeRejectsWrongVersion(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/ws", nil)
	req.Header.Set("Connection", "keep-alive, Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "8")
	req.Header.Set("Sec-WebSocket-Key", "x")
	if _, _, err := upgradeWS(rec, req); !errors.Is(err, errNotWebSocket) {
		t.Fatalf("version 8 upgraded: %v", err)
	}
	if rec.Code != http.StatusUpgradeRequired || rec.Header().Get("Sec-WebSocket-Version") != "13" {
		t.Fatalf("status=%d version-header=%q, want 426 with version 13 advertised",
			rec.Code, rec.Header().Get("Sec-WebSocket-Version"))
	}
}

// roundTrip pushes payload through the client-side frame writer and the
// server-side reader.
func roundTrip(t *testing.T, opcode byte, payload []byte) []byte {
	t.Helper()
	wire := appendMaskedFrame(nil, opcode, payload)
	fin, op, got, err := readWSFrame(bufio.NewReader(bytes.NewReader(wire)), maxWSMessage, true)
	if err != nil {
		t.Fatalf("readWSFrame: %v", err)
	}
	if !fin || op != opcode {
		t.Fatalf("fin=%v op=%d, want final op %d", fin, op, opcode)
	}
	return got
}

func TestFrameRoundTripLengths(t *testing.T) {
	// Each of the three length encodings, at their boundaries.
	for _, n := range []int{0, 1, 125, 126, 127, 1<<16 - 1, 1 << 16, maxWSMessage} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		if got := roundTrip(t, opBinary, payload); !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload mangled", n)
		}
	}
}

func TestServerFramesUnmaskedAndClientFramesMasked(t *testing.T) {
	server := appendWSFrame(nil, opText, []byte("hi"))
	if server[1]&0x80 != 0 {
		t.Fatal("server frame has mask bit set")
	}
	// A server reading an unmasked frame must refuse it...
	if _, _, _, err := readWSFrame(bufio.NewReader(bytes.NewReader(server)), maxWSMessage, true); !errors.Is(err, errBadFrame) {
		t.Fatalf("unmasked client frame accepted: %v", err)
	}
	// ...while a client reading the same bytes accepts them.
	_, _, payload, err := readWSFrame(bufio.NewReader(bytes.NewReader(server)), maxWSMessage, false)
	if err != nil || string(payload) != "hi" {
		t.Fatalf("client read: %q, %v", payload, err)
	}
}

func TestReadWSMessageFragmented(t *testing.T) {
	// "hello world" as text + 2 continuations, with a ping interleaved.
	var wire []byte
	frag := func(fin bool, opcode byte, part string) {
		f := appendMaskedFrame(nil, opcode, []byte(part))
		if !fin {
			f[0] &^= 0x80
		}
		wire = append(wire, f...)
	}
	frag(false, opText, "hel")
	frag(false, opContinuation, "lo ")
	wire = append(wire, appendMaskedFrame(nil, opPing, []byte("k"))...)
	frag(true, opContinuation, "world")

	var pings int
	op, msg, err := readWSMessage(bufio.NewReader(bytes.NewReader(wire)), true,
		func(opcode byte, payload []byte) error {
			if opcode == opPing && string(payload) == "k" {
				pings++
			}
			return nil
		})
	if err != nil || op != opText || string(msg) != "hello world" {
		t.Fatalf("got op=%d msg=%q err=%v", op, msg, err)
	}
	if pings != 1 {
		t.Fatalf("pings seen = %d, want 1", pings)
	}
}

func TestReadWSMessageProtocolErrors(t *testing.T) {
	unfinal := func(opcode byte, part string) []byte {
		f := appendMaskedFrame(nil, opcode, []byte(part))
		f[0] &^= 0x80
		return f
	}
	cases := []struct {
		name string
		wire []byte
		want error
	}{
		{"continuation of nothing", appendMaskedFrame(nil, opContinuation, []byte("x")), errBadFrame},
		{"new message mid-assembly", append(unfinal(opText, "a"), appendMaskedFrame(nil, opText, []byte("b"))...), errBadFrame},
		{"fragmented control", unfinal(opPing, "x"), errBadFrame},
		{"reserved opcode", appendMaskedFrame(nil, 0x3, nil), errBadFrame},
		{"close frame", appendMaskedFrame(nil, opClose, nil), errClosed},
		{"rsv bits", func() []byte { f := appendMaskedFrame(nil, opText, []byte("x")); f[0] |= 0x40; return f }(), errBadFrame},
	}
	for _, tc := range cases {
		_, _, err := readWSMessage(bufio.NewReader(bytes.NewReader(tc.wire)), true, nil)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReadWSFrameHostileLengths(t *testing.T) {
	// 64-bit length with the sign bit set.
	wire := []byte{0x82, 0x80 | 127}
	var ext [8]byte
	binary.BigEndian.PutUint64(ext[:], 1<<63|16)
	wire = append(wire, ext[:]...)
	wire = append(wire, make([]byte, 20)...)
	if _, _, _, err := readWSFrame(bufio.NewReader(bytes.NewReader(wire)), maxWSMessage, true); !errors.Is(err, errBadFrame) {
		t.Fatalf("sign-bit length: %v, want errBadFrame", err)
	}
	// Length beyond the bound must fail BEFORE allocating the payload.
	wire = []byte{0x82, 0x80 | 127}
	binary.BigEndian.PutUint64(ext[:], 1<<40)
	wire = append(wire, ext[:]...)
	if _, _, _, err := readWSFrame(bufio.NewReader(bytes.NewReader(wire)), maxWSMessage, true); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("huge length: %v, want errFrameTooLarge", err)
	}
	// Control frame with a >125 payload length.
	wire = []byte{0x89, 0x80 | 126, 0x01, 0x00}
	if _, _, _, err := readWSFrame(bufio.NewReader(bytes.NewReader(wire)), maxWSMessage, true); !errors.Is(err, errBadFrame) {
		t.Fatalf("fat control frame: %v, want errBadFrame", err)
	}
	// Assembled fragments beyond the bound.
	big := strings.Repeat("x", maxWSMessage/2+1)
	var frag []byte
	f1 := appendMaskedFrame(nil, opText, []byte(big))
	f1[0] &^= 0x80
	frag = append(frag, f1...)
	frag = append(frag, appendMaskedFrame(nil, opContinuation, []byte(big))...)
	if _, _, err := readWSMessage(bufio.NewReader(bytes.NewReader(frag)), true, nil); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversize assembly: %v, want errFrameTooLarge", err)
	}
}

// TestReadWSFrameTruncatedAtEveryByte feeds every strict prefix of a
// valid two-message stream: whole messages before the cut still parse,
// the cut itself must surface as an I/O error — never a hang, panic, or
// phantom message.
func TestReadWSFrameTruncatedAtEveryByte(t *testing.T) {
	first := appendMaskedFrame(nil, opText, []byte("truncate me at every byte"))
	wire := append(append([]byte{}, first...), appendMaskedFrame(nil, opText, []byte("second"))...)
	for cut := 0; cut < len(wire); cut++ {
		br := bufio.NewReader(bytes.NewReader(wire[:cut]))
		var parsed int
		var err error
		for {
			var payload []byte
			_, payload, err = readWSMessage(br, true, nil)
			if err != nil {
				break
			}
			parsed++
			switch parsed {
			case 1:
				if string(payload) != "truncate me at every byte" {
					t.Fatalf("cut=%d: first message mangled: %q", cut, payload)
				}
			default:
				t.Fatalf("cut=%d: phantom message %q from a truncated stream", cut, payload)
			}
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err = %v, want EOF-ish", cut, err)
		}
		if wantFirst := cut >= len(first); (parsed == 1) != wantFirst {
			t.Fatalf("cut=%d: parsed %d messages, first complete=%v", cut, parsed, wantFirst)
		}
	}
}

// FuzzWSFrame throws arbitrary bytes at the server-side message reader.
// The property is total safety: a result or an error, never a panic,
// never a payload above the bound. Seeds cover masked frames,
// fragmentation, control interleave, and hostile lengths.
func FuzzWSFrame(f *testing.F) {
	f.Add(appendMaskedFrame(nil, opText, []byte(`{"type":"ping","req":1}`)))
	f.Add(appendMaskedFrame(nil, opBinary, bytes.Repeat([]byte{7}, 300)))
	f.Add(appendWSFrame(nil, opText, []byte("unmasked")))
	frag := appendMaskedFrame(nil, opText, []byte("he"))
	frag[0] &^= 0x80
	frag = append(frag, appendMaskedFrame(nil, opPing, nil)...)
	frag = append(frag, appendMaskedFrame(nil, opContinuation, []byte("llo"))...)
	f.Add(frag)
	f.Add([]byte{0x81, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x89, 0xFE, 0x7F, 0xFF})
	f.Add([]byte{0x41, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			_, payload, err := readWSMessage(br, true, func(byte, []byte) error { return nil })
			if err != nil {
				return
			}
			if len(payload) > maxWSMessage {
				t.Fatalf("payload of %d bytes escaped the bound", len(payload))
			}
		}
	})
}

// appendWSFrame appends one whole server frame, header and payload.
func appendWSFrame(dst []byte, opcode byte, payload []byte) []byte {
	return append(appendWSHeader(dst, opcode, len(payload)), payload...)
}
