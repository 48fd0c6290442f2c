package diffengine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestComputeIdentical(t *testing.T) {
	doc := []string{"a", "b", "c"}
	d := Compute(doc, doc, 1, 2)
	if !d.Empty() {
		t.Fatalf("diff of identical docs not empty: %+v", d.Ops)
	}
}

func TestComputeAddition(t *testing.T) {
	old := []string{"item one", "item two"}
	new := []string{"item zero", "item one", "item two"}
	d := Compute(old, new, 1, 2)
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpAdd {
		t.Fatalf("ops = %+v, want single add", d.Ops)
	}
	if d.Ops[0].Old != 0 {
		t.Fatalf("add after line %d, want 0 (prepend)", d.Ops[0].Old)
	}
	checkApply(t, old, new, d)
}

func TestComputeDeletion(t *testing.T) {
	old := []string{"a", "b", "c", "d"}
	new := []string{"a", "d"}
	d := Compute(old, new, 1, 2)
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpDelete {
		t.Fatalf("ops = %+v, want single delete", d.Ops)
	}
	if d.Ops[0].Old != 2 || d.Ops[0].OldCount != 2 {
		t.Fatalf("delete at %d count %d, want line 2 count 2", d.Ops[0].Old, d.Ops[0].OldCount)
	}
	checkApply(t, old, new, d)
}

func TestComputeReplacement(t *testing.T) {
	old := []string{"head", "old body", "tail"}
	new := []string{"head", "new body", "tail"}
	d := Compute(old, new, 1, 2)
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpReplace {
		t.Fatalf("ops = %+v, want single replace", d.Ops)
	}
	checkApply(t, old, new, d)
}

func TestComputeEdgeDocs(t *testing.T) {
	cases := []struct{ old, new []string }{
		{nil, nil},
		{nil, []string{"x"}},
		{[]string{"x"}, nil},
		{[]string{"x"}, []string{"y"}},
		{[]string{"a", "b"}, []string{"b", "a"}},
		{strings.Split("a b c d e f", " "), strings.Split("f e d c b a", " ")},
	}
	for i, c := range cases {
		d := Compute(c.old, c.new, 0, 1)
		checkApply(t, c.old, c.new, d)
		_ = i
	}
}

func TestLineCountMatchesEditDistance(t *testing.T) {
	old := []string{"a", "b", "c"}
	new := []string{"a", "x", "c", "y"}
	d := Compute(old, new, 1, 2)
	// One replace (b->x: 2 lines) + one add (y: 1 line) = 3 changed lines.
	if got := d.LineCount(); got != 3 {
		t.Fatalf("LineCount = %d, want 3", got)
	}
}

func TestApplyRejectsWrongBase(t *testing.T) {
	old := []string{"a", "b", "c"}
	d := Compute(old, []string{"a"}, 1, 2)
	if _, err := d.Apply([]string{"a"}); err == nil {
		t.Fatal("applying against a too-short base should error")
	}
}

func TestApplyRejectsUnknownKind(t *testing.T) {
	d := &Diff{Ops: []Op{{Kind: 'z', Old: 1}}}
	if _, err := d.Apply([]string{"a"}); err == nil {
		t.Fatal("unknown op kind should error")
	}
}

// checkApply asserts diff(old→new) applied to old reproduces new.
func checkApply(t *testing.T, old, new []string, d *Diff) {
	t.Helper()
	got, err := d.Apply(old)
	if err != nil {
		t.Fatalf("Apply: %v (ops %+v)", err, d.Ops)
	}
	if len(got) == 0 && len(new) == 0 {
		return
	}
	if !reflect.DeepEqual(got, new) {
		t.Fatalf("Apply mismatch:\n got %q\nwant %q\nops %+v", got, new, d.Ops)
	}
}

// randomDoc generates a document whose lines come from a small alphabet so
// diffs contain real matches.
func randomDoc(rng *rand.Rand, n int) []string {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	doc := make([]string, n)
	for i := range doc {
		doc[i] = words[rng.Intn(len(words))]
	}
	return doc
}

// mutate applies k random line edits to a copy of doc.
func mutate(rng *rand.Rand, doc []string, k int) []string {
	out := append([]string(nil), doc...)
	for i := 0; i < k; i++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(out) > 0: // delete
			p := rng.Intn(len(out))
			out = append(out[:p], out[p+1:]...)
		case op == 1: // insert
			p := rng.Intn(len(out) + 1)
			out = append(out[:p], append([]string{"inserted-" + string(rune('a'+rng.Intn(26)))}, out[p:]...)...)
		default: // replace
			if len(out) > 0 {
				out[rng.Intn(len(out))] = "changed-" + string(rune('a'+rng.Intn(26)))
			}
		}
	}
	return out
}

func TestPropertyDiffApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		old := randomDoc(rng, rng.Intn(40))
		new := mutate(rng, old, rng.Intn(10))
		d := Compute(old, new, 7, 8)
		got, err := d.Apply(old)
		if err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		if !equalDocs(got, new) {
			t.Fatalf("trial %d: round trip failed\nold %q\nnew %q\ngot %q\nops %+v", trial, old, new, got, d.Ops)
		}
	}
}

func TestPropertyDiffMinimalOnNoChange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, rng.Intn(30))
		return Compute(doc, doc, 1, 2).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		old := randomDoc(rng, rng.Intn(30))
		new := mutate(rng, old, 1+rng.Intn(8))
		d := Compute(old, new, uint64(trial), uint64(trial+1))
		enc := Encode(d)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("trial %d: Decode: %v\n%s", trial, err, enc)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("trial %d: Decode(Encode(d)) = %+v, want %+v", trial, back, d)
		}
		got, err := back.Apply(old)
		if err != nil {
			t.Fatalf("trial %d: Apply decoded: %v", trial, err)
		}
		if !equalDocs(got, new) {
			t.Fatalf("trial %d: decoded diff does not reproduce new doc", trial)
		}
	}
}

func TestEncodeDotStuffing(t *testing.T) {
	old := []string{"a"}
	new := []string{"a", ".hidden", "..double"}
	d := Compute(old, new, 1, 2)
	back, err := Decode(Encode(d))
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	if !equalDocs(got, new) {
		t.Fatalf("dot-stuffed round trip failed: %q", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"BOGUS HEADER\n",
		"CORONA-DIFF v1 2\nxyz\n",
		"CORONA-DIFF v1 2\n3a\nline without terminator\n",
		"CORONA-DIFF v1 2\n1,0d\n",
		"CORONA-DIFF v1 2 3\n",
		"CORONA-DIFF v1 2\n\n1,1d\n",
		"CORONA-DIFF v1 2\r\n1,1d\r\n",
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", c)
		}
	}
}

// TestVersionsReadsHeaderOnly: Versions returns the pair Decode would,
// rejects the headers Decode rejects, and ignores the hunks below.
func TestVersionsReadsHeaderOnly(t *testing.T) {
	d := Compute([]string{"a"}, []string{"a", "b"}, 7, 9)
	if oldV, newV, err := Versions(Encode(d)); err != nil || oldV != 7 || newV != 9 {
		t.Fatalf("Versions = %d, %d, %v; want 7, 9, nil", oldV, newV, err)
	}
	if oldV, newV, err := Versions("CORONA-DIFF v3 4\nnot a hunk\n"); err != nil || oldV != 3 || newV != 4 {
		t.Fatalf("Versions over bad hunks = %d, %d, %v; want 3, 4, nil", oldV, newV, err)
	}
	for _, c := range []string{"", "BOGUS HEADER\n", "CORONA-DIFF v1 2 3\n", "CORONA-DIFF v1 2\r\n1,1d\r\n"} {
		if _, _, err := Versions(c); err == nil {
			t.Errorf("Versions(%q) succeeded, want error", c)
		}
	}
}

func TestWireSizeSmallerThanContent(t *testing.T) {
	// A small edit to a large document must encode much smaller than the
	// document itself — the point of delta encoding (paper §3.4).
	rng := rand.New(rand.NewSource(5))
	old := randomDoc(rng, 400)
	new := mutate(rng, old, 3)
	d := Compute(old, new, 1, 2)
	contentSize := 0
	for _, l := range new {
		contentSize += len(l) + 1
	}
	if d.WireSize() > contentSize/5 {
		t.Fatalf("WireSize %d not ≪ content %d", d.WireSize(), contentSize)
	}
}

func equalDocs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMyersEditCountMatchesLCS checks minimality: on random small
// inputs the diff changes exactly len(a)+len(b)-2·LCS(a,b) lines, and
// Apply rebuilds the new side.
func TestMyersEditCountMatchesLCS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := []string{"a", "b", "c", "d"}
	doc := func() []string {
		out := make([]string, rng.Intn(12))
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := doc(), doc()
		d := Compute(a, b, 1, 2)
		if want := len(a) + len(b) - 2*lcsLen(a, b); d.LineCount() != want {
			t.Fatalf("trial %d: %q -> %q changes %d lines, minimum is %d (ops %+v)", trial, a, b, d.LineCount(), want, d.Ops)
		}
		checkApply(t, a, b, d)
	}
}

// lcsLen is the textbook dynamic program for the longest common
// subsequence length.
func lcsLen(a, b []string) int {
	row := make([]int, len(b)+1)
	for i := range a {
		diag := 0
		for j := range b {
			up := row[j+1]
			if a[i] == b[j] {
				row[j+1] = diag + 1
			} else if row[j] > row[j+1] {
				row[j+1] = row[j]
			}
			diag = up
		}
	}
	return row[len(b)]
}

// TestDecodeKeepsCarriageReturns pins the round trip of lines ending in
// '\r': Decode splits at '\n' only, so a replica applying the diff holds
// the same lines as the node that computed it.
func TestDecodeKeepsCarriageReturns(t *testing.T) {
	old := []string{"<title>one</title>\r", "x"}
	new := []string{"<title>two</title>\r", "x", "\r"}
	back, err := Decode(Encode(Compute(old, new, 1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	checkApply(t, old, new, back)
}

// TestComputeBoundsLargeEdits: two 5,000-line documents that share only
// their first and last lines are an edit far past maxEditDistance. Compute
// sends the middle whole, as one OpReplace, which round-trips through
// Encode, Decode and Apply, and allocates under 4 MiB (about 2.2 MiB on
// amd64). Uncapped, Myers' trace alone would hold D² = 10^8 ints.
func TestComputeBoundsLargeEdits(t *testing.T) {
	const lines = 5000
	old, new := make([]string, lines), make([]string, lines)
	for i := range old {
		old[i], new[i] = fmt.Sprintf("old line %d", i), fmt.Sprintf("new line %d", i)
	}
	old[0], new[0] = "<rss>", "<rss>"
	old[lines-1], new[lines-1] = "</rss>", "</rss>"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := Compute(old, new, 1, 2)
	runtime.ReadMemStats(&after)
	// The race build's slices.Grow allocates a scratch slice as large as
	// the growth, so the bound holds only without it.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 && !raceEnabled {
		t.Errorf("Compute allocated %d KiB, want under 4 MiB", got>>10)
	}
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpReplace || d.Ops[0].Old != 2 || d.Ops[0].OldCount != lines-2 {
		t.Fatalf("want one OpReplace of lines 2..%d, got %d ops, first %c at %d", lines-1, len(d.Ops), d.Ops[0].Kind, d.Ops[0].Old)
	}
	back, err := Decode(Encode(d))
	if err != nil {
		t.Fatal(err)
	}
	checkApply(t, old, new, back)
}

func FuzzDiffRoundTrip(f *testing.F) {
	f.Add("a\nb\nc", "a\nc\nd")
	f.Add("", ".\n..\n.x")
	f.Add("<title>one</title>\r\nx", "<title>two</title>\r\nx\r\n")
	f.Add("x\n\n\ny", "\n\nx")
	f.Fuzz(func(t *testing.T, a, b string) {
		old, new := strings.Split(a, "\n"), strings.Split(b, "\n")
		enc := Encode(Compute(old, new, 3, 4))
		d, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%q): %v", enc, err)
		}
		got, err := d.Apply(old)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if !slices.Equal(got, new) {
			t.Fatalf("round trip rebuilt %q, want %q (encoding %q)", got, new, enc)
		}
	})
}

// TestConcurrentExtractAndDiff runs the pooled scratch — the extracted
// lines, the Myers frontier and trace — from several goroutines at once:
// every result must equal the one-goroutine result.
func TestConcurrentExtractAndDiff(t *testing.T) {
	docs := generatorDocs(3, 6)
	e := RSSProfile()
	var want []string
	var prev []string
	for i, doc := range docs {
		cur := e.Extract(doc)
		want = append(want, Encode(Compute(prev, cur, uint64(i), uint64(i+1))))
		prev = cur
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				var prev []string
				for i, doc := range docs {
					cur, d := e.ExtractDiff(prev, []byte(doc), uint64(i), uint64(i+1))
					if got := Encode(d); got != want[i] {
						t.Errorf("version %d: concurrent diff differs:\n got %q\nwant %q", i+1, got, want[i])
						return
					}
					prev = cur
				}
			}
		}()
	}
	wg.Wait()
}
