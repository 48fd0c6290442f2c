package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httputil"
	"strings"
)

// maxHeadBytes caps one response head: the status line and every header
// line, line ends included. A longer head is a poll error and its
// connection is closed, so an origin that streams header lines cannot
// grow a poller's memory until the poll deadline. The same cap bounds a
// chunked body's trailer section.
const maxHeadBytes = 64 << 10

// maxKeptLineBytes bounds the line buffer a pooled connection keeps
// between polls; a longer head line's buffer is dropped after its head.
const maxKeptLineBytes = 4 << 10

// errHeadTooLarge reports a response head longer than maxHeadBytes.
var errHeadTooLarge = fmt.Errorf("core: response head exceeds %d bytes", maxHeadBytes)

// errMalformedHead reports a response head net/http would refuse too.
var errMalformedHead = errors.New("core: malformed response head")

// respHead is what a poll uses of a response head. readHead parses it in
// place from the connection's buffered reader, accepting every head
// net/http's ReadResponse accepts and reading the same status, ETag, body
// framing, Close and Content-Encoding from it (FuzzReadHead checks this).
type respHead struct {
	status int
	etag   uint64 // the first ETag, when etagOK
	etagOK bool   // the first ETag is a decimal uint64
	// opaqueETag is the first ETag of a 200 when it is not a decimal
	// uint64, as the origin wrote it (quotes and W/ included).
	opaqueETag string
	// length is the body's length: 0 for a status without a body, -1 for
	// a chunked body or one that runs to the close.
	length   int64
	chunked  bool
	close    bool   // the connection cannot carry another request
	gzip     bool   // the first Content-Encoding is gzip
	location string // the first Location, read only for a redirect status
}

// readHead parses the next response head on oc into h.
func (oc *originConn) readHead(h *respHead) error {
	*h = respHead{}
	budget := maxHeadBytes
	defer func() {
		if cap(oc.line) > maxKeptLineBytes {
			oc.line = nil
		}
	}()
	line, err := oc.appendLine(oc.line[:0], &budget)
	if err != nil {
		return err
	}
	oc.line = line[:0]
	major, minor, ok := parseStatusLine(line, h)
	if !ok {
		return errMalformedHead
	}
	// The first header line cannot continue the status line.
	if p, err := oc.br.Peek(1); err == nil && (p[0] == ' ' || p[0] == '\t') {
		return errMalformedHead
	}
	var (
		seenETag, seenEncoding, seenLocation bool
		lengths, encodings                   int // Content-Length and Transfer-Encoding fields
		length                               int64
		chunkedTE, connClose, keepAlive      bool
	)
	for {
		line, err := oc.headerLine(&budget)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		key, value, ok := splitHeader(line)
		if !ok {
			return errMalformedHead
		}
		switch {
		case key == nil:
			// A name with a space in it: net/http keeps it uncanonicalized,
			// so it is none of the fields below.
		case foldEq(key, "etag"):
			if !seenETag {
				seenETag = true
				h.etag, h.etagOK = parseDecimal(value)
				if !h.etagOK && h.status == statusOK {
					h.opaqueETag = string(value)
				}
			}
		case foldEq(key, "content-length"):
			n, ok := parseDecimal(trimOWS(value))
			if !ok || n > math.MaxInt64 || lengths > 0 && int64(n) != length {
				return errMalformedHead
			}
			lengths++
			length = int64(n)
		case foldEq(key, "transfer-encoding"):
			encodings++
			chunkedTE = foldEq(value, "chunked")
		case foldEq(key, "connection"):
			connClose = connClose || hasToken(value, "close")
			keepAlive = keepAlive || hasToken(value, "keep-alive")
		case foldEq(key, "content-encoding"):
			if !seenEncoding {
				seenEncoding = true
				h.gzip = foldEq(value, "gzip")
			}
		case foldEq(key, "location"):
			if !seenLocation && isRedirect(h.status) {
				h.location = string(value)
			}
			seenLocation = true
		}
	}

	switch {
	case major < 1:
		h.close = true
	case major == 1 && minor == 0:
		h.close = connClose || !keepAlive
	default:
		h.close = connClose
	}
	// Transfer-Encoding counts from HTTP/1.1 on (a version of 0.0 reads
	// as 1.1), and then only as one field naming chunked.
	if encodings > 0 && (major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0) {
		if encodings > 1 || !chunkedTE {
			return errMalformedHead
		}
		h.chunked = true
	}
	switch {
	case h.status >= 100 && h.status <= 199 || h.status == 204 || h.status == 304:
		h.length, h.chunked = 0, false
	case h.chunked:
		h.length = -1
	case lengths > 0:
		h.length = length
	default:
		h.length, h.close = -1, true
	}
	return nil
}

// appendLine appends the next line on oc to dst and returns it without
// its line end ("\n" or "\r\n"), charging budget for every byte read.
// The line must end before the stream does.
func (oc *originConn) appendLine(dst []byte, budget *int) ([]byte, error) {
	for {
		frag, err := oc.br.ReadSlice('\n')
		if *budget -= len(frag); *budget < 0 {
			return nil, errHeadTooLarge
		}
		dst = append(dst, frag...)
		switch err {
		case nil:
			dst = dst[:len(dst)-1]
			if n := len(dst); n > 0 && dst[n-1] == '\r' {
				dst = dst[:n-1]
			}
			return dst, nil
		case bufio.ErrBufferFull:
		case io.EOF:
			return nil, io.ErrUnexpectedEOF
		default:
			return nil, err
		}
	}
}

// headerLine reads one header line into oc.line, joined with its
// continuation lines (lines that start with a space or tab) the way
// net/textproto joins them: each piece trimmed of spaces and tabs, one
// space between pieces. It returns an empty line at the end of the head.
func (oc *originConn) headerLine(budget *int) ([]byte, error) {
	buf, err := oc.appendLine(oc.line[:0], budget)
	if err != nil {
		return nil, err
	}
	if len(buf) > 0 && bytes.IndexByte(buf, ':') < 0 {
		return nil, errMalformedHead // the name must be on the first line
	}
	buf = trimOWS(buf)
	for len(buf) > 0 {
		if p, err := oc.br.Peek(1); err != nil || p[0] != ' ' && p[0] != '\t' {
			break
		}
		for {
			p, err := oc.br.Peek(1)
			if err != nil || p[0] != ' ' && p[0] != '\t' {
				break
			}
			oc.br.Discard(1)
			*budget--
		}
		// Only the new piece is trimmed: a piece that is all blanks leaves
		// the separating space in place, as net/textproto does.
		piece := len(buf) + 1
		if buf, err = oc.appendLine(append(buf, ' '), budget); err != nil {
			return nil, err
		}
		end := len(buf)
		for end > piece && (buf[end-1] == ' ' || buf[end-1] == '\t') {
			end--
		}
		buf = buf[:end]
	}
	oc.line = buf[:0]
	return buf, nil
}

// skipTrailer reads a chunked body's trailer section through the blank
// line that ends it, leaving the connection at the next response.
func (oc *originConn) skipTrailer() error {
	budget := maxHeadBytes
	for {
		line, err := oc.appendLine(oc.line[:0], &budget)
		if err != nil {
			return err
		}
		oc.line = line[:0]
		if len(line) == 0 {
			return nil
		}
	}
}

// parseStatusLine reads the status code into h and returns the protocol
// version, under net/http's rules: "HTTP/x.y", one or more spaces, and a
// three-byte code that strconv.Atoi reads as a non-negative number.
func parseStatusLine(line []byte, h *respHead) (major, minor int, ok bool) {
	proto, rest, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return 0, 0, false
	}
	code, _, _ := bytes.Cut(bytes.TrimLeft(rest, " "), []byte(" "))
	if len(code) != 3 {
		return 0, 0, false
	}
	digits, neg := code, false
	if c := code[0]; c == '+' || c == '-' {
		digits, neg = code[1:], c == '-'
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		h.status = h.status*10 + int(c-'0')
	}
	if neg && h.status != 0 {
		return 0, 0, false
	}
	if len(proto) != len("HTTP/x.y") || !bytes.HasPrefix(proto, []byte("HTTP/")) || proto[6] != '.' ||
		proto[5] < '0' || proto[5] > '9' || proto[7] < '0' || proto[7] > '9' {
		return 0, 0, false
	}
	return int(proto[5] - '0'), int(proto[7] - '0'), true
}

// splitHeader splits a header line at its first colon into the name and
// the value without leading spaces and tabs. A name holding a space is
// returned as nil (net/http accepts it, but it names no field a poll
// reads). It reports false for a line net/http refuses: an empty name,
// a name byte outside the token set, or a control byte in the value.
func splitHeader(line []byte) (key, value []byte, ok bool) {
	key, value, _ = bytes.Cut(line, []byte(":"))
	if len(key) == 0 {
		return nil, nil, false
	}
	spaced := false
	for _, c := range key {
		if c == ' ' {
			spaced = true
		} else if !tokenByte(c) {
			return nil, nil, false
		}
	}
	for _, c := range value {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, false
		}
	}
	if spaced {
		key = nil
	}
	for len(value) > 0 && (value[0] == ' ' || value[0] == '\t') {
		value = value[1:]
	}
	return key, value, true
}

// tokenByte reports whether c may appear in a header name (RFC 9110's
// tchar).
func tokenByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// foldEq reports whether b equals lower, an ASCII-lowercase string, with
// ASCII letters in b folded to lower case.
func foldEq(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list v holds token, an
// ASCII-lowercase string, compared with ASCII case folding.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		item, rest, _ := bytes.Cut(v, []byte(","))
		if foldEq(trimOWS(item), token) {
			return true
		}
		v = rest
	}
	return false
}

// trimOWS trims spaces and tabs from both ends of b.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// parseDecimal parses b as strconv.ParseUint(b, 10, 64) does: one or more
// ASCII digits, no sign, no overflow.
func parseDecimal(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// bodyReader reads one response body off its connection: the rest of a
// sized body, a chunked body through its trailer section, or everything
// up to the origin's close. It lives in its originConn, so a poll opens a
// body without allocating one.
type bodyReader struct {
	oc      *originConn
	left    int64     // bytes of a sized body still to read
	chunks  io.Reader // the chunked decoder of a chunked body
	toClose bool      // the body runs to the close
}

// openBody returns a reader of the body whose head h was just read.
func (oc *originConn) openBody(h *respHead) io.Reader {
	b := &oc.body
	*b = bodyReader{oc: oc, left: max(h.length, 0), toClose: h.length < 0 && !h.chunked}
	if h.chunked {
		b.chunks = httputil.NewChunkedReader(oc.br)
	}
	return b
}

func (b *bodyReader) Read(p []byte) (int, error) {
	switch {
	case b.chunks != nil:
		n, err := b.chunks.Read(p)
		if err == io.EOF {
			b.chunks = nil
			if err = b.oc.skipTrailer(); err == nil {
				err = io.EOF
			}
		}
		return n, err
	case b.toClose:
		return b.oc.br.Read(p)
	case b.left == 0:
		return 0, io.EOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.oc.br.Read(p)
	b.left -= int64(n)
	if err == io.EOF && b.left > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
