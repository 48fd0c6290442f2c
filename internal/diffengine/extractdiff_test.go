package diffengine

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// checkExtractDiff runs ExtractDiff of doc against prev and checks it
// against Extract, Compute and Encode: the same content, the same
// encoded diff, every unchanged line one of prev's own strings, and
// nothing left pointing into doc, which it overwrites afterwards.
func checkExtractDiff(t *testing.T, e *Extractor, prev []string, doc string) []string {
	t.Helper()
	want := e.Extract(doc)
	wantDiff := Encode(Compute(prev, want, 3, 4))
	buf := []byte(doc)
	got, d := e.ExtractDiff(prev, buf, 3, 4)
	for i := range buf {
		buf[i] = '#'
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ExtractDiff content of %q = %q, Extract gives %q", doc, got, want)
	}
	if enc := Encode(d); enc != wantDiff {
		t.Fatalf("ExtractDiff diff of %q against %q:\n%s\nCompute gives:\n%s", doc, prev, enc, wantDiff)
	}
	kept := make(map[*byte]bool, len(prev))
	for _, l := range prev {
		kept[unsafe.StringData(l)] = true
	}
	inserted := 0
	for _, op := range d.Ops {
		inserted += len(op.NewLines)
	}
	shared := 0
	for _, l := range got {
		if kept[unsafe.StringData(l)] {
			shared++
		}
	}
	if shared+inserted != len(got) {
		t.Fatalf("%d of %d lines are prev's strings and %d are inserted: some line is neither", shared, len(got), inserted)
	}
	return got
}

// TestExtractDiffMatchesCompute runs chains of generator and decorated
// documents, and documents whose updates change, drop or repeat lines,
// through ExtractDiff, each against the content it returned for the
// version before.
func TestExtractDiffMatchesCompute(t *testing.T) {
	e := RSSProfile()
	rng := rand.New(rand.NewSource(7))
	for seed := int64(1); seed <= 4; seed++ {
		var plain, decorated []string
		for _, doc := range generatorDocs(seed, 6) {
			plain = checkExtractDiff(t, e, plain, doc)
			decorated = checkExtractDiff(t, e, decorated, decorate(rng, doc))
		}
	}
	var prev []string
	for _, doc := range []string{
		"", "a\nb\nc", "a\nb\nc", "c\nb\na", "a\n\n<!-- x -->\nb\nb\nb", "b\n.dot\nb", "", "x",
	} {
		prev = checkExtractDiff(t, e, prev, doc)
	}
}

// TestExtractDiffWithoutChangeReturnsPrev pins the no-change case: the
// content is the previous content itself, and the diff is empty.
func TestExtractDiffWithoutChangeReturnsPrev(t *testing.T) {
	e := RSSProfile()
	doc := generatorDocs(2, 1)[0]
	prev := e.Extract(doc)
	got, d := e.ExtractDiff(prev, []byte(doc), 1, 2)
	if !d.Empty() || unsafe.SliceData(got) != unsafe.SliceData(prev) {
		t.Fatalf("unchanged document: %d hunks, content shared %v", len(d.Ops), unsafe.SliceData(got) == unsafe.SliceData(prev))
	}
}

func FuzzExtractDiffMatchesCompute(f *testing.F) {
	docs := generatorDocs(1, 2)
	f.Add(docs[0], docs[1])
	f.Add("a\nb\nc", "a\nx\nc\nd")
	f.Add("", "<ttl>5</ttl>\n.x\n")
	f.Add("same\r\nlines", "same\nlines\n")
	e := RSSProfile()
	f.Fuzz(func(t *testing.T, a, b string) {
		// Keep the edit within maxEditDistance (D is at most the two
		// documents' line count), so the fuzzer compares Myers' scripts
		// rather than the whole-region replace.
		if strings.Count(a, "\n")+strings.Count(b, "\n")+2 > maxEditDistance || len(a)+len(b) > 1<<16 {
			return
		}
		checkExtractDiff(t, e, e.Extract(a), b)
	})
}

// oneItemUpdate returns a generator document and its next version with
// one item published on top.
func oneItemUpdate() (old, new string) {
	old = generatorDocs(1, 1)[0]
	at := strings.Index(old, "    <item>")
	item := "    <item>\n      <title>Council approves bridge</title>\n" +
		"      <link>http://origin.example/feed/1.xml/story/20</link>\n" +
		"      <guid>http://origin.example/feed/1.xml#20</guid>\n" +
		"      <description>engineers observed the bridge across the river</description>\n    </item>\n"
	return old, old[:at] + item + old[at:]
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestExtractDiffAllocatesOnlyWhatItKeeps pins what detecting an update
// costs: for a one-item update, ExtractDiff and Encode allocate the new
// content slice, the diff and its hunk list, one string per inserted
// line and the encoded diff, and nothing the size of the document.
func TestExtractDiffAllocatesOnlyWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pooled scratch is reallocated")
	}
	e := RSSProfile()
	oldDoc, newDoc := oneItemUpdate()
	prev := e.Extract(oldDoc)
	buf := make([]byte, len(newDoc))
	var content []string
	var d *Diff
	var enc string
	run := func() {
		copy(buf, newDoc)
		content, d = e.ExtractDiff(prev, buf, 1, 2)
		enc = Encode(d)
	}
	const runs = 50
	run() // warm the pooled scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)

	if len(d.Ops) != 1 || d.Ops[0].Kind != OpAdd {
		t.Fatalf("the one-item update diffs as %s", enc)
	}
	inserted, insertedBytes := len(d.Ops[0].NewLines), 0
	for _, l := range d.Ops[0].NewLines {
		insertedBytes += len(l)
	}
	// Content slice, Diff, hunk list, the inserted lines, the encoding.
	if want := float64(3 + inserted + 1); allocs != want {
		t.Errorf("a one-item update allocates %.1f times, want %.0f (%d inserted lines)", allocs, want, inserted)
	}
	kept := int(unsafe.Sizeof("")) * cap(content)
	kept += int(unsafe.Sizeof(Diff{})) + int(unsafe.Sizeof(Op{}))*cap(d.Ops) + insertedBytes + len(enc)
	// AllocsPerRun makes one more run than it counts.
	perRun := int(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("a one-item update: %.0f allocations, %d bytes (keeps %d; document %d bytes)", allocs, perRun, kept, len(newDoc))
	if perRun > kept*5/4+16*(inserted+4) {
		t.Errorf("a one-item update allocates %d bytes, want about the %d it keeps (document: %d bytes)", perRun, kept, len(newDoc))
	}
}
