// Fixture: a payload type with only one half of its binary form does not
// compile as a handler's payload, which is why wiresym no longer checks
// for both halves.
package encodeonly

type Message struct{}

type Node struct{}

type Payload interface {
	AppendBinary(dst []byte) ([]byte, error)
	DecodeBinary(src []byte) error
}

func Handle[T any, P interface {
	*T
	Payload
}](n *Node, msgType string, h func(Message, P)) {
}

// encOnlyMsg encodes but could not decode what it sent.
type encOnlyMsg struct{}

func (m *encOnlyMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

func register(n *Node) {
	Handle(n, "w.enc", func(Message, *encOnlyMsg) {})
}
