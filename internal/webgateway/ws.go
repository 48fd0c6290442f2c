package webgateway

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
)

// Server-side RFC 6455, on nothing but the standard library: the
// handshake is an HTTP GET hijacked off the mux, frames are parsed and
// emitted by hand. Matching the dependency-free internal/metrics
// precedent, no websocket package is imported.

// WS frame opcodes.
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// maxWSMessage bounds one assembled application message, fragments
// included — the same 1 MiB bound as clientproto.MaxFrame (bodies carry
// diffs, not feeds). Hostile lengths beyond it kill the connection
// before any allocation of that size.
const maxWSMessage = 1 << 20

// wsAcceptGUID is the key-digest constant of RFC 6455 §4.2.2.
const wsAcceptGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Subprotocol is the WS subprotocol name for the gateway's JSON message
// surface; offered by a client, it is echoed in the handshake.
const Subprotocol = "corona.v1.json"

var (
	errNotWebSocket  = errors.New("webgateway: not a websocket handshake")
	errFrameTooLarge = errors.New("webgateway: frame exceeds message bound")
	errBadFrame      = errors.New("webgateway: malformed frame")
	errClosed        = errors.New("webgateway: close frame received")
)

// wsAccept computes the Sec-WebSocket-Accept digest for a handshake key.
func wsAccept(key string) string {
	h := sha1.New()
	io.WriteString(h, key)
	io.WriteString(h, wsAcceptGUID)
	return base64.StdEncoding.EncodeToString(h.Sum(nil))
}

// headerHasToken reports whether a comma-separated header value contains
// token, case-insensitively ("Connection: keep-alive, Upgrade").
func headerHasToken(value, token string) bool {
	for _, part := range strings.Split(value, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// upgradeWS validates a WS handshake request and hijacks the connection,
// replying 101. On failure it writes the HTTP error itself and returns
// errNotWebSocket. The returned bufio.Reader may hold bytes already read
// from the socket; all further reads must go through it.
func upgradeWS(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.Reader, error) {
	if r.Method != http.MethodGet ||
		!headerHasToken(r.Header.Get("Connection"), "Upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "websocket handshake required", http.StatusBadRequest)
		return nil, nil, errNotWebSocket
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusUpgradeRequired)
		return nil, nil, errNotWebSocket
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, nil, errNotWebSocket
	}
	subprotocol := ""
	for _, offered := range r.Header.Values("Sec-WebSocket-Protocol") {
		if headerHasToken(offered, Subprotocol) {
			subprotocol = Subprotocol
			break
		}
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be hijacked", http.StatusInternalServerError)
		return nil, nil, errNotWebSocket
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, nil, err
	}
	var resp strings.Builder
	resp.WriteString("HTTP/1.1 101 Switching Protocols\r\n")
	resp.WriteString("Upgrade: websocket\r\n")
	resp.WriteString("Connection: Upgrade\r\n")
	fmt.Fprintf(&resp, "Sec-WebSocket-Accept: %s\r\n", wsAccept(key))
	if subprotocol != "" {
		fmt.Fprintf(&resp, "Sec-WebSocket-Protocol: %s\r\n", subprotocol)
	}
	resp.WriteString("\r\n")
	if _, err := conn.Write([]byte(resp.String())); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, rw.Reader, nil
}

// readWSFrame reads one raw frame header+payload. With requireMask set
// (a server reading client frames) an unmasked frame is an error (RFC
// 6455 §5.1); a mask, when present, is removed. RSV bits must be zero
// (no extension is negotiated), control frames must be final and
// <= 125 bytes, and the payload must fit the message bound. It is the
// fuzz surface: any byte stream either yields well-formed frames or an
// error, never a panic or an oversized allocation.
func readWSFrame(br *bufio.Reader, bound int, requireMask bool) (fin bool, opcode byte, payload []byte, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return false, 0, nil, err
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return false, 0, nil, errBadFrame // RSV bits without an extension
	}
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	if requireMask && !masked {
		return false, 0, nil, errBadFrame // client frames must be masked
	}
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(br, ext[:]); err != nil {
			return false, 0, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
		if length&(1<<63) != 0 {
			return false, 0, nil, errBadFrame // most significant bit must be 0
		}
	}
	if opcode >= opClose {
		// Control frames: never fragmented, payload <= 125.
		if !fin || length > 125 {
			return false, 0, nil, errBadFrame
		}
	}
	if length > uint64(bound) {
		return false, 0, nil, errFrameTooLarge
	}
	var mask [4]byte
	if masked {
		if _, err = io.ReadFull(br, mask[:]); err != nil {
			return false, 0, nil, err
		}
	}
	payload = make([]byte, int(length))
	if _, err = io.ReadFull(br, payload); err != nil {
		return false, 0, nil, err
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i%4]
		}
	}
	return fin, opcode, payload, nil
}

// readWSMessage assembles one application message, transparently
// handling fragmentation and interleaved control frames: pings are
// answered through onControl, pongs are dropped, a close frame returns
// errClosed. The total assembled length is bounded. requireMask is
// passed through to the frame reader: true on the server side, false on
// the client side.
func readWSMessage(br *bufio.Reader, requireMask bool, onControl func(opcode byte, payload []byte) error) (opcode byte, payload []byte, err error) {
	var message []byte
	assembling := false
	for {
		fin, op, part, err := readWSFrame(br, maxWSMessage, requireMask)
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case opClose:
			return 0, nil, errClosed
		case opPing, opPong:
			if onControl != nil {
				if err := onControl(op, part); err != nil {
					return 0, nil, err
				}
			}
			continue
		case opText, opBinary:
			if assembling {
				return 0, nil, errBadFrame // new message before the last finished
			}
			opcode, message, assembling = op, part, true
		case opContinuation:
			if !assembling {
				return 0, nil, errBadFrame // continuation of nothing
			}
			if len(message)+len(part) > maxWSMessage {
				return 0, nil, errFrameTooLarge
			}
			message = append(message, part...)
		default:
			return 0, nil, errBadFrame // reserved opcode
		}
		if fin {
			return opcode, message, nil
		}
	}
}

// appendWSHeader appends the header of one final, unmasked server frame
// (RFC 6455 §5.1: a server must not mask) carrying n payload bytes.
func appendWSHeader(dst []byte, opcode byte, n int) []byte {
	dst = append(dst, 0x80|opcode)
	switch {
	case n <= 125:
		return append(dst, byte(n))
	case n <= 1<<16-1:
		return append(dst, 126, byte(n>>8), byte(n))
	}
	return binary.BigEndian.AppendUint64(append(dst, 127), uint64(n))
}
