// Fixture: handler registration coverage. Handle has the shape of
// pastry.Handle: a generic function binding a message type to a handler
// of *T, with *T constrained to both halves of the binary form.
package wiresym

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

// PayloadAs has the instantiation shape of a registration but another
// name: not a registration.
func PayloadAs[T any, P interface {
	*T
	Payload
}](msg Message) P {
	return nil
}

// okMsg has fuzz coverage: clean.
type okMsg struct{ A int }

func (m *okMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }
func (m *okMsg) DecodeBinary(src []byte) error           { return nil }

// untestedMsg has no robustness test referencing it.
type untestedMsg struct{}

func (m *untestedMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }
func (m *untestedMsg) DecodeBinary(src []byte) error           { return nil }

// explicitMsg is untested too, and registered with its type argument
// written out.
type explicitMsg struct{}

func (m *explicitMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }
func (m *explicitMsg) DecodeBinary(src []byte) error           { return nil }

// unregisteredMsg is untested but never registered: ignored.
type unregisteredMsg struct{}

func (m *unregisteredMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }
func (m *unregisteredMsg) DecodeBinary(src []byte) error           { return nil }

func handleOK(Message, *okMsg)             {}
func handleUntested(Message, *untestedMsg) {}

func registerAll(n *Node) {
	Handle(n, "w.ok", handleOK)
	Handle(n, "w.untested", handleUntested)                              // want "untestedMsg has no truncation/fuzz coverage"
	Handle[explicitMsg](n, "w.explicit", func(Message, *explicitMsg) {}) // want "explicitMsg has no truncation/fuzz coverage"
	Handle(n, "w.again", func(Message, *untestedMsg) {})                 // reported once, at the first site
	_ = PayloadAs[unregisteredMsg](Message{})
}
