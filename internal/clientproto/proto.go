package clientproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"corona/internal/wirebin"
)

// Version is the protocol's hello byte. Both ends must send exactly this
// value; there is no negotiation. It is 6 since ServerInfo lost its
// store-health fields: a client that still expects them fails at the
// hello instead of failing to decode the first ServerInfo.
const Version = 6

// MaxFrame bounds one frame's type+body byte count.
const MaxFrame = 1 << 20

// Frame type bytes (doc.go).
const (
	TypeLogin       = 0x01
	TypeSubscribe   = 0x02
	TypeUnsubscribe = 0x03
	TypePing        = 0x04
	TypeAck         = 0x10
	TypeNak         = 0x11
	TypeNotify      = 0x12
	TypeServerInfo  = 0x13
)

// ErrFrame is returned for malformed frames: unknown type, short body,
// trailing bytes, or a length beyond MaxFrame.
var ErrFrame = errors.New("clientproto: malformed frame")

// Frame is one protocol message in either direction.
type Frame interface {
	frameType() byte
	appendBody(dst []byte) []byte
}

// Login binds the connection to a handle; ResumeToken is empty on first
// login and the previously issued token on resumption.
type Login struct {
	ReqID       uint64
	Handle      string
	ResumeToken []byte
}

// Subscribe requests a channel subscription for the logged-in handle.
type Subscribe struct {
	ReqID uint64
	URL   string
	// Since, when set, is a resume cursor (Session.Subscribe): the web
	// framings carry it, the binary wire does not.
	Since *uint64
}

// Unsubscribe removes one.
type Unsubscribe struct {
	ReqID uint64
	URL   string
}

// Ping is a liveness probe; the server acks it and refreshes ServerInfo.
type Ping struct {
	ReqID uint64
}

// Ack is the success reply to a request. Token is non-empty only on
// Login acks: the session's resume token.
type Ack struct {
	ReqID uint64
	Token []byte
}

// Nak is the failure reply to a request.
type Nak struct {
	ReqID  uint64
	Reason string
}

// Notify is one structured update notification.
type Notify struct {
	Channel string
	Version uint64
	Diff    string
	At      time.Time
}

// ServerInfo advertises the serving node and its view of the ring.
type ServerInfo struct {
	// Node is the serving node's advertised overlay endpoint.
	Node string
	// Peers are the overlay endpoints of the node's leaf-set siblings —
	// operator-visible topology, not dialable client ports.
	Peers []string
}

func (f *Login) frameType() byte       { return TypeLogin }
func (f *Subscribe) frameType() byte   { return TypeSubscribe }
func (f *Unsubscribe) frameType() byte { return TypeUnsubscribe }
func (f *Ping) frameType() byte        { return TypePing }
func (f *Ack) frameType() byte         { return TypeAck }
func (f *Nak) frameType() byte         { return TypeNak }
func (f *Notify) frameType() byte      { return TypeNotify }
func (f *ServerInfo) frameType() byte  { return TypeServerInfo }

func (f *Login) appendBody(dst []byte) []byte {
	dst = wirebin.AppendUvarint(dst, f.ReqID)
	dst = wirebin.AppendString(dst, f.Handle)
	return wirebin.AppendBytes(dst, f.ResumeToken)
}

func (f *Subscribe) appendBody(dst []byte) []byte {
	dst = wirebin.AppendUvarint(dst, f.ReqID)
	return wirebin.AppendString(dst, f.URL)
}

func (f *Unsubscribe) appendBody(dst []byte) []byte {
	dst = wirebin.AppendUvarint(dst, f.ReqID)
	return wirebin.AppendString(dst, f.URL)
}

func (f *Ping) appendBody(dst []byte) []byte {
	return wirebin.AppendUvarint(dst, f.ReqID)
}

func (f *Ack) appendBody(dst []byte) []byte {
	dst = wirebin.AppendUvarint(dst, f.ReqID)
	return wirebin.AppendBytes(dst, f.Token)
}

func (f *Nak) appendBody(dst []byte) []byte {
	dst = wirebin.AppendUvarint(dst, f.ReqID)
	return wirebin.AppendString(dst, f.Reason)
}

func (f *Notify) appendBody(dst []byte) []byte {
	dst = wirebin.AppendString(dst, f.Channel)
	dst = wirebin.AppendUvarint(dst, f.Version)
	dst = wirebin.AppendString(dst, f.Diff)
	return wirebin.AppendUvarint(dst, uint64(f.At.UnixNano()))
}

func (f *ServerInfo) appendBody(dst []byte) []byte {
	dst = wirebin.AppendString(dst, f.Node)
	dst = wirebin.AppendUvarint(dst, uint64(len(f.Peers)))
	for _, p := range f.Peers {
		dst = wirebin.AppendString(dst, p)
	}
	return dst
}

// AppendFrame appends f's full wire form — u32 big-endian length, type
// byte, body — to dst and returns it.
func AppendFrame(dst []byte, f Frame) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, f.frameType())
	dst = f.appendBody(dst)
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// DecodeFrame decodes one frame body (type byte plus fields, without the
// length prefix). The decode is strict: short fields, trailing bytes, and
// unknown types return ErrFrame.
func DecodeFrame(body []byte) (Frame, error) {
	if len(body) == 0 {
		return nil, ErrFrame
	}
	r := wirebin.NewReader(body[1:])
	var f Frame
	switch body[0] {
	case TypeLogin:
		f = &Login{ReqID: r.Uvarint(), Handle: r.String(), ResumeToken: cloned(r.Bytes())}
	case TypeSubscribe:
		f = &Subscribe{ReqID: r.Uvarint(), URL: r.String()}
	case TypeUnsubscribe:
		f = &Unsubscribe{ReqID: r.Uvarint(), URL: r.String()}
	case TypePing:
		f = &Ping{ReqID: r.Uvarint()}
	case TypeAck:
		f = &Ack{ReqID: r.Uvarint(), Token: cloned(r.Bytes())}
	case TypeNak:
		f = &Nak{ReqID: r.Uvarint(), Reason: r.String()}
	case TypeNotify:
		n := &Notify{Channel: r.String(), Version: r.Uvarint(), Diff: r.String()}
		n.At = time.Unix(0, int64(r.Uvarint()))
		f = n
	case TypeServerInfo:
		si := &ServerInfo{Node: r.String()}
		if n := r.ListLen(1); n > 0 {
			si.Peers = make([]string, 0, n)
			for i := 0; i < n; i++ {
				si.Peers = append(si.Peers, r.String())
			}
		}
		f = si
	default:
		return nil, ErrFrame
	}
	if r.Err() != nil || r.Len() != 0 {
		return nil, ErrFrame
	}
	return f, nil
}

// cloned copies a Reader-aliased byte slice so decoded frames do not
// retain the read buffer (nil stays nil).
func cloned(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// WriteFrame writes f's wire form to w.
func WriteFrame(w io.Writer, f Frame) error {
	_, err := w.Write(AppendFrame(nil, f))
	return err
}

// ReadFrame reads and decodes one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > MaxFrame {
		return nil, ErrFrame
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return DecodeFrame(body)
}

// Negotiate runs the server side of the hello exchange on conn-like rw:
// it reads the client's hello byte and echoes Version when it matches,
// or replies 0 and returns an error when it does not.
func Negotiate(rw io.ReadWriter) error {
	var hello [1]byte
	if _, err := io.ReadFull(rw, hello[:]); err != nil {
		return err
	}
	reply := byte(Version)
	if hello[0] != Version {
		reply = 0
	}
	if _, err := rw.Write([]byte{reply}); err != nil {
		return err
	}
	if reply == 0 {
		return fmt.Errorf("clientproto: unsupported protocol version %d", hello[0])
	}
	return nil
}

// Hello runs the client side of the hello exchange: it sends Version and
// fails unless the server echoes it.
func Hello(rw io.ReadWriter) error {
	if _, err := rw.Write([]byte{Version}); err != nil {
		return err
	}
	var reply [1]byte
	if _, err := io.ReadFull(rw, reply[:]); err != nil {
		return err
	}
	if reply[0] != Version {
		return fmt.Errorf("clientproto: server refused protocol version %d (replied %d)", Version, reply[0])
	}
	return nil
}
