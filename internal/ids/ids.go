// Package ids implements the 160-bit circular identifier space shared by
// Corona nodes and channels.
//
// Identifiers are SHA-1 hashes (of a node's address or a channel's URL)
// interpreted as unsigned 160-bit integers on a ring. The overlay treats an
// identifier as a sequence of 40 hexadecimal digits (base 16, as in the
// prototype); the prefix digits shared between a node ID and a channel ID
// determine wedge membership for cooperative polling (paper §3.1).
package ids

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
)

// Bits is the width of an identifier in bits.
const Bits = 160

// Bytes is the width of an identifier in bytes.
const Bytes = Bits / 8

// ID is a 160-bit identifier on the circular numeric space. IDs order as
// big-endian unsigned integers; the ring wraps at 2^160.
type ID [Bytes]byte

// Zero is the all-zero identifier.
var Zero ID

// HashString derives an identifier from an arbitrary string, such as a
// channel URL or a node's network address, using SHA-1 as in the prototype
// (paper §4).
func HashString(s string) ID {
	return ID(sha1.Sum([]byte(s)))
}

// FromHex parses a 40-character hexadecimal string into an ID.
func FromHex(s string) (ID, error) {
	var id ID
	if len(s) != Bytes*2 {
		return id, fmt.Errorf("ids: hex string has length %d, want %d", len(s), Bytes*2)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("ids: invalid hex: %w", err)
	}
	copy(id[:], b)
	return id, nil
}

// MustFromHex is FromHex for tests and literals; it panics on error.
func MustFromHex(s string) ID {
	id, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return id
}

// Random returns a uniformly random identifier drawn from rng.
func Random(rng *rand.Rand) ID {
	var id ID
	for i := 0; i < Bytes; {
		v := rng.Uint64()
		for j := 0; j < 8 && i < Bytes; j++ {
			id[i] = byte(v >> (56 - 8*j))
			i++
		}
	}
	return id
}

// String renders the identifier as lowercase hex.
func (id ID) String() string {
	return hex.EncodeToString(id[:])
}

// Short renders the first 8 hex digits, for logs.
func (id ID) Short() string {
	return hex.EncodeToString(id[:4])
}

// Cmp compares two identifiers as big-endian unsigned integers, returning
// -1, 0, or +1.
func (id ID) Cmp(other ID) int {
	for i := 0; i < Bytes; i++ {
		switch {
		case id[i] < other[i]:
			return -1
		case id[i] > other[i]:
			return 1
		}
	}
	return 0
}

// IsZero reports whether the identifier is all zeros.
func (id ID) IsZero() bool {
	return id == Zero
}

// Add returns id + other mod 2^160.
func (id ID) Add(other ID) ID {
	var out ID
	var carry uint16
	for i := Bytes - 1; i >= 0; i-- {
		sum := uint16(id[i]) + uint16(other[i]) + carry
		out[i] = byte(sum)
		carry = sum >> 8
	}
	return out
}

// Sub returns id - other mod 2^160 (the clockwise distance from other to id).
func (id ID) Sub(other ID) ID {
	var out ID
	var borrow int16
	for i := Bytes - 1; i >= 0; i-- {
		d := int16(id[i]) - int16(other[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

// Distance returns the shorter arc length between two identifiers on the
// ring, i.e. min(a-b, b-a) mod 2^160.
func (id ID) Distance(other ID) ID {
	d1 := id.Sub(other)
	d2 := other.Sub(id)
	if d1.Cmp(d2) <= 0 {
		return d1
	}
	return d2
}

// Between reports whether id lies in the half-open clockwise arc (from, to].
// If from == to the arc covers the whole ring.
func (id ID) Between(from, to ID) bool {
	if from == to {
		return true
	}
	if from.Cmp(to) < 0 {
		return id.Cmp(from) > 0 && id.Cmp(to) <= 0
	}
	// The arc wraps around zero.
	return id.Cmp(from) > 0 || id.Cmp(to) <= 0
}

// Radix is the digit radix of the overlay: identifiers are read as
// hexadecimal digits, as in the paper's base-16 prototype (§4).
const Radix = 16

// NumDigits is how many base-16 digits an identifier has.
const NumDigits = Bits / 4

// Digit returns the i-th most significant hex digit of id, in [0,Radix).
func Digit(id ID, i int) int {
	return int(id[i/2]>>(4-4*(i%2))) & 0xf
}

// CommonPrefix returns the number of leading hex digits shared by x and y.
func CommonPrefix(x, y ID) int {
	for i := 0; i < Bytes; i++ {
		if d := x[i] ^ y[i]; d != 0 {
			return 2*i + bits.LeadingZeros8(d)/4
		}
	}
	return NumDigits
}

// InWedge reports whether node belongs to the level-l wedge of channel:
// the set of nodes sharing at least l prefix digits with the channel ID.
// Level 0 is the whole ring (paper §3.1).
func InWedge(node, channel ID, level int) bool {
	if level <= 0 {
		return true
	}
	return CommonPrefix(node, channel) >= level
}

// WithDigit returns a copy of id whose i-th digit is set to d. It is used
// when constructing routing-table probe targets.
func WithDigit(id ID, i, d int) ID {
	shift := 4 - 4*(i%2)
	id[i/2] = id[i/2]&^(0xf<<shift) | byte(d&0xf)<<shift
	return id
}

// MaxLevel returns ceil(log_16 n), the base polling level K at which, in
// expectation, a single node (the owner) shares K prefix digits with a
// channel (paper §3.3: "initially, only the owner nodes at level
// K = ceil(log N) poll for the channels").
func MaxLevel(n int) int {
	if n <= 1 {
		return 0
	}
	level := 0
	total := 1
	for total < n {
		total *= Radix
		level++
	}
	return level
}
