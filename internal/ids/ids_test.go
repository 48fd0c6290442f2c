package ids

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHashStringDeterministic(t *testing.T) {
	a := HashString("http://example.com/feed.xml")
	b := HashString("http://example.com/feed.xml")
	if a != b {
		t.Fatalf("HashString not deterministic: %v vs %v", a, b)
	}
	c := HashString("http://example.com/other.xml")
	if a == c {
		t.Fatalf("distinct URLs hashed to the same ID %v", a)
	}
}

func TestFromHexRoundTrip(t *testing.T) {
	id := HashString("roundtrip")
	got, err := FromHex(id.String())
	if err != nil {
		t.Fatalf("FromHex(%q): %v", id.String(), err)
	}
	if got != id {
		t.Fatalf("round trip mismatch: %v vs %v", got, id)
	}
}

func TestFromHexErrors(t *testing.T) {
	cases := []string{"", "abc", "zz" + HashString("x").String()[2:]}
	for _, c := range cases {
		if _, err := FromHex(c); err == nil {
			t.Errorf("FromHex(%q) succeeded, want error", c)
		}
	}
}

func TestCmp(t *testing.T) {
	var a, b ID
	a[Bytes-1] = 1
	if Zero.Cmp(a) != -1 || a.Cmp(Zero) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp ordering wrong for small values")
	}
	b[0] = 1
	if a.Cmp(b) != -1 {
		t.Fatal("Cmp must be big-endian: high byte dominates")
	}
}

func TestAddSubIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := Random(rng), Random(rng)
		if got := a.Add(b).Sub(b); got != a {
			t.Fatalf("(a+b)-b != a: a=%v b=%v got=%v", a, b, got)
		}
	}
}

func TestAddCarryPropagation(t *testing.T) {
	var ones ID
	for i := range ones {
		ones[i] = 0xff
	}
	var one ID
	one[Bytes-1] = 1
	if got := ones.Add(one); got != Zero {
		t.Fatalf("max+1 should wrap to zero, got %v", got)
	}
	if got := Zero.Sub(one); got != ones {
		t.Fatalf("0-1 should wrap to max, got %v", got)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(a, b ID) bool {
		return a.Distance(b) == b.Distance(a)
	}
	cfg := &quick.Config{Values: randomIDPair}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceZeroIffEqual(t *testing.T) {
	f := func(a, b ID) bool {
		d := a.Distance(b)
		return (d == Zero) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{Values: randomIDPair}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceIsShorterArc(t *testing.T) {
	// Distance must never exceed half the ring.
	var half ID
	half[0] = 0x80
	f := func(a, b ID) bool {
		return a.Distance(b).Cmp(half) <= 0
	}
	if err := quick.Check(f, &quick.Config{Values: randomIDPair}); err != nil {
		t.Fatal(err)
	}
}

func TestBetween(t *testing.T) {
	a := MustFromHex("1000000000000000000000000000000000000000")
	b := MustFromHex("2000000000000000000000000000000000000000")
	c := MustFromHex("3000000000000000000000000000000000000000")
	if !b.Between(a, c) {
		t.Error("b should be in (a, c]")
	}
	if a.Between(a, c) {
		t.Error("arc is open at the start")
	}
	if !c.Between(a, c) {
		t.Error("arc is closed at the end")
	}
	// Wrapping arc (c, a]: everything outside (a, c].
	if !Zero.Between(c, a) {
		t.Error("zero should be in the wrapping arc (c, a]")
	}
	if b.Between(c, a) {
		t.Error("b should not be in the wrapping arc")
	}
	// Degenerate arc covers the ring.
	if !b.Between(a, a) {
		t.Error("(x, x] must cover the whole ring")
	}
}

func TestDigitExtraction(t *testing.T) {
	id := MustFromHex("0123456789abcdef0123456789abcdef01234567")
	want := []int{0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0xa, 0xb, 0xc, 0xd, 0xe, 0xf}
	for i, w := range want {
		if got := Digit(id, i); got != w {
			t.Errorf("digit %d = %#x, want %#x", i, got, w)
		}
	}
	if got := Digit(id, NumDigits-1); got != 0x7 {
		t.Errorf("last digit = %#x, want 0x7", got)
	}
	if NumDigits != 40 || Radix != 16 {
		t.Error("geometry wrong")
	}
}

func TestWithDigit(t *testing.T) {
	id := HashString("withdigit")
	for i := 0; i < NumDigits; i += 7 {
		for d := 0; d < Radix; d += 5 {
			got := WithDigit(id, i, d)
			if Digit(got, i) != d {
				t.Fatalf("WithDigit(%d,%d): digit = %d", i, d, Digit(got, i))
			}
			// Other digits unchanged.
			for j := 0; j < NumDigits; j++ {
				if j != i && Digit(got, j) != Digit(id, j) {
					t.Fatalf("WithDigit(%d,%d) perturbed digit %d", i, d, j)
				}
			}
		}
	}
}

func TestCommonPrefix(t *testing.T) {
	id := HashString("prefix")
	if got := CommonPrefix(id, id); got != NumDigits {
		t.Fatalf("CommonPrefix(id,id) = %d, want %d", got, NumDigits)
	}
	for i := 0; i < NumDigits; i += 3 {
		other := WithDigit(id, i, (Digit(id, i)+1)%Radix)
		if got := CommonPrefix(id, other); got != i {
			t.Errorf("CommonPrefix with digit %d flipped = %d, want %d", i, got, i)
		}
	}
}

// digitwisePrefix is the reference CommonPrefix: compare digit by digit.
func digitwisePrefix(x, y ID) int {
	n := 0
	for n < NumDigits && Digit(x, n) == Digit(y, n) {
		n++
	}
	return n
}

// TestCommonPrefixMatchesDigitwise holds the byte-XOR CommonPrefix to the
// digit-by-digit reference, on random pairs (which mostly differ early)
// and on pairs built to share exactly k digits for every k.
func TestCommonPrefixMatchesDigitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		x, y := Random(rng), Random(rng)
		if got, want := CommonPrefix(x, y), digitwisePrefix(x, y); got != want {
			t.Fatalf("CommonPrefix(%v, %v) = %d, reference %d", x, y, got, want)
		}
	}
	for k := 0; k <= NumDigits; k++ {
		for trial := 0; trial < 20; trial++ {
			x, y := Random(rng), Random(rng)
			for i := 0; i < k; i++ {
				y = WithDigit(y, i, Digit(x, i))
			}
			if k < NumDigits {
				// Any differing digit at k, then random tails.
				y = WithDigit(y, k, (Digit(x, k)+1+rng.Intn(Radix-1))%Radix)
			}
			got, want := CommonPrefix(x, y), digitwisePrefix(x, y)
			if got != k || want != k {
				t.Fatalf("k=%d: CommonPrefix(%v, %v) = %d, reference %d", k, x, y, got, want)
			}
		}
	}
}

func TestInWedge(t *testing.T) {
	channel := HashString("channel")
	node := WithDigit(channel, 2, (Digit(channel, 2)+1)%Radix) // shares exactly 2 digits
	for level := 0; level <= 4; level++ {
		want := level <= 2
		if got := InWedge(node, channel, level); got != want {
			t.Errorf("InWedge level %d = %v, want %v", level, got, want)
		}
	}
}

func TestMaxLevel(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {16, 1}, {17, 2}, {256, 2}, {1024, 3}, {4096, 3}, {4097, 4},
	}
	for _, c := range cases {
		if got := MaxLevel(c.n); got != c.want {
			t.Errorf("MaxLevel(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPrefixMonotonicity(t *testing.T) {
	// Property: if a node is in a wedge at level l, it is in every wedge
	// at level < l (wedges are nested).
	f := func(node, channel ID) bool {
		p := CommonPrefix(node, channel)
		for l := 0; l <= p; l++ {
			if !InWedge(node, channel, l) {
				return false
			}
		}
		return !InWedge(node, channel, p+1) || p == NumDigits
	}
	if err := quick.Check(f, &quick.Config{Values: randomIDPair}); err != nil {
		t.Fatal(err)
	}
}

// randomIDPair fills two reflect.Values with random IDs for testing/quick.
func randomIDPair(args []reflect.Value, rng *rand.Rand) {
	for i := range args {
		args[i] = reflect.ValueOf(Random(rng))
	}
}
