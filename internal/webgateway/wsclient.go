package webgateway

import (
	"bufio"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/textproto"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Client side of the gateway's WebSocket surface, for Go callers (the
// e2e tests, load tools). Browsers use the native WebSocket API; this
// mirrors what they do on the wire: a masked-frame client speaking the
// JSON messages of doc.go.

// WSClient is one client-side WebSocket connection to a /ws endpoint.
type WSClient struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // serializes writes (control replies vs. messages)
}

// DialWS connects and performs the client half of the RFC 6455
// handshake. rawURL is ws://host:port/ws (or http://, treated the same).
func DialWS(rawURL string) (*WSClient, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Host, "80")
	}
	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		return nil, err
	}
	keyBytes := make([]byte, 16)
	rand.Read(keyBytes)
	key := base64.StdEncoding.EncodeToString(keyBytes)
	var req strings.Builder
	fmt.Fprintf(&req, "GET %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&req, "Host: %s\r\n", u.Host)
	req.WriteString("Upgrade: websocket\r\n")
	req.WriteString("Connection: Upgrade\r\n")
	fmt.Fprintf(&req, "Sec-WebSocket-Key: %s\r\n", key)
	req.WriteString("Sec-WebSocket-Version: 13\r\n")
	fmt.Fprintf(&req, "Sec-WebSocket-Protocol: %s\r\n", Subprotocol)
	req.WriteString("\r\n")
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(req.String())); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	tp := textproto.NewReader(br)
	status, err := tp.ReadLine()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !strings.Contains(status, "101") {
		conn.Close()
		return nil, fmt.Errorf("webgateway: handshake refused: %s", status)
	}
	hdr, err := tp.ReadMIMEHeader()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if got, want := hdr.Get("Sec-Websocket-Accept"), wsAccept(key); got != want {
		conn.Close()
		return nil, fmt.Errorf("webgateway: bad Sec-WebSocket-Accept %q", got)
	}
	conn.SetDeadline(time.Time{})
	return &WSClient{conn: conn, br: br}, nil
}

// appendMaskedFrame appends one final, masked client frame to dst: the
// server frame's header with the mask bit set, the mask, then the
// masked payload.
func appendMaskedFrame(dst []byte, opcode byte, payload []byte) []byte {
	start := len(dst)
	dst = appendWSHeader(dst, opcode, len(payload))
	dst[start+1] |= 0x80
	var mask [4]byte
	rand.Read(mask[:])
	dst = append(dst, mask[:]...)
	for i, b := range payload {
		dst = append(dst, b^mask[i%4])
	}
	return dst
}

func (c *WSClient) write(opcode byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	//lint:allow lockblock wmu exists solely to serialize frame writes on this conn; it guards no other state
	_, err := c.conn.Write(appendMaskedFrame(nil, opcode, payload))
	return err
}

// WriteJSON sends v as one masked text message.
func (c *WSClient) WriteJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.write(opText, b)
}

// ReadMessage returns the next application message's payload, answering
// server pings along the way. Set a deadline first (SetReadDeadline)
// when a bounded wait is wanted.
func (c *WSClient) ReadMessage() ([]byte, error) {
	_, payload, err := readWSMessage(c.br, false, func(opcode byte, p []byte) error {
		if opcode == opPing {
			return c.write(opPong, p)
		}
		return nil
	})
	return payload, err
}

// SetReadDeadline bounds subsequent ReadMessage calls.
func (c *WSClient) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// Close sends a close frame (best-effort) and closes the connection.
func (c *WSClient) Close() error {
	c.write(opClose, nil)
	return c.conn.Close()
}

// Kill closes the TCP connection with no close handshake — a browser
// losing its network, for resume tests.
func (c *WSClient) Kill() error { return c.conn.Close() }
