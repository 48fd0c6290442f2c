package diffengine

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"corona/internal/feed"
)

// changed reports whether two documents differ in core content: whether
// their extractions differ.
func changed(e *Extractor, old, new string) bool {
	return !slices.Equal(e.Extract(old), e.Extract(new))
}

func TestExtractStripsComments(t *testing.T) {
	e := NewExtractor()
	doc := "<html>\n<!-- cache key 8231 -->\n<p>news</p>\n</html>"
	got := e.Extract(doc)
	for _, l := range got {
		if strings.Contains(l, "cache key") {
			t.Fatalf("comment survived extraction: %q", got)
		}
	}
}

func TestExtractStripsScriptAndStyle(t *testing.T) {
	e := NewExtractor()
	doc := "<p>before</p>\n<script>var t = Date.now();</script>\n<style>.x{color:red}</style>\n<p>after</p>"
	got := strings.Join(e.Extract(doc), "\n")
	if strings.Contains(got, "Date.now") || strings.Contains(got, "color:red") {
		t.Fatalf("script/style survived: %q", got)
	}
	if !strings.Contains(got, "before") || !strings.Contains(got, "after") {
		t.Fatalf("real content lost: %q", got)
	}
}

func TestExtractStripsAdElements(t *testing.T) {
	e := NewExtractor()
	doc := `<div class="story">headline</div>` + "\n" +
		`<div class="ad banner">BUY NOW $9.99 offer 1234</div>` + "\n" +
		`<div id="sponsor-box">sponsored</div>`
	got := strings.Join(e.Extract(doc), "\n")
	if strings.Contains(got, "BUY NOW") || strings.Contains(got, "sponsored") {
		t.Fatalf("advertisement survived: %q", got)
	}
	if !strings.Contains(got, "headline") {
		t.Fatalf("story content lost: %q", got)
	}
}

func TestExtractBlanksTimestamps(t *testing.T) {
	e := NewExtractor()
	v1 := "<p>Served at Tue, 02 May 2006 15:04:05 GMT</p>\n<p>story</p>"
	v2 := "<p>Served at Tue, 02 May 2006 16:11:32 GMT</p>\n<p>story</p>"
	if changed(e, v1, v2) {
		t.Fatal("timestamp-only difference reported as update")
	}
	v3 := "<p>Served at 2006-05-02T15:04:05Z</p>\n<p>story</p>"
	v4 := "<p>Served at 2006-05-02T16:11:32Z</p>\n<p>story</p>"
	if changed(e, v3, v4) {
		t.Fatal("ISO timestamp-only difference reported as update")
	}
}

func TestExtractBlanksCounters(t *testing.T) {
	e := NewExtractor()
	v1 := "<p>8241 visitors so far</p>\n<p>page generated in 12 ms</p>\n<p>story</p>"
	v2 := "<p>8250 visitors so far</p>\n<p>page generated in 48 ms</p>\n<p>story</p>"
	if changed(e, v1, v2) {
		t.Fatal("counter-only difference reported as update")
	}
}

func TestExtractDetectsRealChanges(t *testing.T) {
	e := NewExtractor()
	v1 := "<p>old headline</p>\n<p>posted Tue, 02 May 2006 15:04:05 GMT</p>"
	v2 := "<p>new headline</p>\n<p>posted Tue, 02 May 2006 16:00:00 GMT</p>"
	if !changed(e, v1, v2) {
		t.Fatal("germane change not detected")
	}
}

func TestRSSProfileIgnoresBookkeeping(t *testing.T) {
	e := RSSProfile()
	v1 := `<rss><channel><title>t</title>
<lastBuildDate>Tue, 02 May 2006 15:00:00 GMT</lastBuildDate>
<ttl>30</ttl>
<item><title>story</title></item>
</channel></rss>`
	v2 := strings.ReplaceAll(v1, "15:00:00", "15:30:00")
	v2 = strings.ReplaceAll(v2, "<ttl>30</ttl>", "<ttl>60</ttl>")
	if changed(e, v1, v2) {
		t.Fatal("RSS bookkeeping churn reported as update")
	}
	v3 := strings.ReplaceAll(v1, "<item><title>story</title></item>",
		"<item><title>breaking</title></item><item><title>story</title></item>")
	if !changed(e, v1, v3) {
		t.Fatal("new item not detected")
	}
}

func TestRSSProfileDiffIsNewItemSized(t *testing.T) {
	// The survey finds updates average ~17 XML lines; the diff of adding
	// one item to a 100-item feed must be item-sized, not feed-sized.
	e := RSSProfile()
	var items []string
	for i := 0; i < 100; i++ {
		items = append(items, "<item>", "<title>story about topic</title>", "<link>http://example.com/"+string(rune('a'+i%26))+"</link>", "</item>")
	}
	old := "<rss><channel>\n" + strings.Join(items, "\n") + "\n</channel></rss>"
	new := "<rss><channel>\n<item>\n<title>breaking news</title>\n<link>http://example.com/fresh</link>\n</item>\n" + strings.Join(items, "\n") + "\n</channel></rss>"
	d := Compute(e.Extract(old), e.Extract(new), 1, 2)
	if d.Empty() {
		t.Fatal("new item produced empty diff")
	}
	if got := d.LineCount(); got > 10 {
		t.Fatalf("diff of one new item touches %d lines", got)
	}
}

func TestStripTagSelfClosing(t *testing.T) {
	e := NewExtractor(WithVolatileTag("cloud"))
	doc := `<channel><cloud domain="x" port="80"/><title>keep</title></channel>`
	got := strings.Join(e.Extract(doc), "\n")
	if strings.Contains(got, "cloud") {
		t.Fatalf("self-closing tag survived: %q", got)
	}
	if !strings.Contains(got, "keep") {
		t.Fatalf("content lost: %q", got)
	}
}

func TestStripTagDoesNotOvermatchPrefix(t *testing.T) {
	e := NewExtractor(WithVolatileTag("a"))
	doc := "<article>long form</article>\n<a href=\"x\">link</a>"
	got := strings.Join(e.Extract(doc), "\n")
	if !strings.Contains(got, "long form") {
		t.Fatalf("<article> wrongly stripped as <a>: %q", got)
	}
	if strings.Contains(got, "link") {
		t.Fatalf("<a> not stripped: %q", got)
	}
}

func TestExtractUnterminatedBlocks(t *testing.T) {
	e := NewExtractor()
	// Must not panic or hang on malformed input.
	for _, doc := range []string{
		"<p>x</p><!-- unterminated",
		"<script>while(true){}",
		"<p>ok</p><style>",
	} {
		_ = e.Extract(doc)
	}
}

// TestExtractFoldsTagsInASCIIOnly pins the regression where tag search
// ran on strings.ToLower(doc) but cut doc: runes whose lowercase form has
// a different UTF-8 length shifted every later offset, panicking on Ⱥ
// (2 bytes, lowercase 3) and silently corrupting the output on İ and the
// Kelvin sign.
func TestExtractFoldsTagsInASCIIOnly(t *testing.T) {
	e := RSSProfile()
	for _, prefix := range []string{
		strings.Repeat("Ⱥ", 20),
		strings.Repeat("İ", 20),
		strings.Repeat("\u212a", 20), // Kelvin sign
	} {
		doc := prefix + "<ttl>5</ttl>\n<TITLE>keep</TITLE><TTL>6</TTL>\n<title>more</title>"
		got := e.Extract(doc)
		want := []string{prefix, "<TITLE>keep</TITLE>", "<title>more</title>"}
		if !slices.Equal(got, want) {
			t.Errorf("Extract(%q) = %q, want %q", doc, got, want)
		}
	}
}

// TestExtractIgnoresLineEndings pins the CRLF rule: the extraction of a
// document does not depend on whether the origin ends lines with "\r\n".
func TestExtractIgnoresLineEndings(t *testing.T) {
	e := RSSProfile()
	lf := "<rss>\n<title>two</title>\n<ttl>5</ttl>\n<item>story \t</item>\n</rss>\n"
	crlf := strings.ReplaceAll(lf, "\n", "\r\n")
	if got, want := e.Extract(crlf), e.Extract(lf); !slices.Equal(got, want) {
		t.Fatalf("CRLF extraction %q, LF extraction %q", got, want)
	}
}

// TestExtractCutJoinsMakeMarkers pins the cut passes' bookkeeping: a cut
// can join text into a marker for a later pass, and that pass must still
// run, both when the pass that made it made few joins and when it made
// more than cut re-counts one by one.
func TestExtractCutJoinsMakeMarkers(t *testing.T) {
	e, ref := RSSProfile(), newReferenceRSS()
	many := strings.Repeat("<!---->a", 10)
	for _, c := range []struct{ doc, want string }{
		{"<sty<!-- -->le>x</style>kept", "kept"},
		{many + "<sty<!-- -->le>x</style>kept", strings.Repeat("a", 10) + "kept"},
		{"<ttl>1</ttl><ttl>2</ttl><ttl>3</ttl>kept", "kept"},
		{"<t<script></script>tl>1</ttl>kept", "kept"},
		{"<lastBuildDate<!-- -->>x</lastBuildDate>kept", "kept"}, // longest marker, joined at its delimiter
	} {
		if got := e.Extract(c.doc); !slices.Equal(got, []string{c.want}) {
			t.Errorf("Extract(%q) = %q, want [%q]", c.doc, got, c.want)
		}
		checkAgainstReference(t, e, ref, c.doc)
	}
}

func TestExtractMatchesReferenceOnGeneratorDocs(t *testing.T) {
	e, ref := RSSProfile(), newReferenceRSS()
	docs := 0
	for seed := int64(1); docs < 1200; seed++ {
		for _, doc := range generatorDocs(seed, 24) {
			checkAgainstReference(t, e, ref, doc)
			docs++
		}
	}
}

// TestExtractMatchesReferenceOnDecoratedDocs checks generator documents
// with lines every rule acts on spliced in, in mixed case and with CRLF
// endings, so each rule's fast path is compared on matching input too.
func TestExtractMatchesReferenceOnDecoratedDocs(t *testing.T) {
	e, ref := RSSProfile(), newReferenceRSS()
	rng := rand.New(rand.NewSource(11))
	for seed := int64(1); seed <= 40; seed++ {
		for _, doc := range generatorDocs(seed, 6) {
			checkAgainstReference(t, e, ref, decorate(rng, doc))
		}
	}
}

// ruleFragments are snippets each rule acts on, plus near misses.
var ruleFragments = []string{
	"<!-- c -->", "  <!---->\t", "<!--->", "<!<!--x-->--->", "<!-- open", "-->", "<!",
	`<div class="ad">x</div>`, `<p ID = "promo-1">`, `<p class="read">`, `class="x" id=`,
	"Mon, 02 Jan 2006 15:04:05 GMT", "tuesday 7 MAY 06", "Sun, 1 Dec 2024 01:02 +0100",
	"2006-01-02T15:04:05.123+01:00", "2006-01-02 15:04", "1-22-3",
	"9:05:07", "12:34:56", "1:2:3",
	"page generated in 12 ms", "Rendered in 3.5 SECONDS", "served in 7s",
	"8241 visitors so far", "1 visitor", "12 HITS today", "3\tviews",
	"<script>x</script>", "<STYLE type=x>y</STYLE>", "<script src=a/>", "<scripts>",
	"<lastBuildDate>Mon, 02 Jan 2006</lastBuildDate>", "<TTL>5</ttl>", "<cloud/>", "<generator>",
	"</generator>", "<skipHours><hour>1</hour></skipHours>", "<skipdays", "\r", " \t ", "Ⱥİ\u212a", "\xff\xfe",
}

func decorate(rng *rand.Rand, doc string) string {
	lines := strings.Split(doc, "\n")
	for i := rng.Intn(12); i > 0; i-- {
		p := rng.Intn(len(lines))
		f := ruleFragments[rng.Intn(len(ruleFragments))]
		if rng.Intn(2) == 0 {
			lines[p] += f
		} else {
			lines = slices.Insert(lines, p, f)
		}
	}
	sep := "\n"
	if rng.Intn(3) == 0 {
		sep = "\r\n"
	}
	return strings.Join(lines, sep)
}

// generatorDocs renders versions consecutive snapshots of one seeded
// feed.Generator channel.
func generatorDocs(seed int64, versions int) []string {
	g := feed.NewGenerator(fmt.Sprintf("http://origin.example/feed/%d.xml", seed), seed)
	now := time.Date(2006, 5, 2, 15, 4, 5, 0, time.UTC)
	g.Bootstrap(now)
	var docs []string
	for v := 0; v < versions; v++ {
		now = now.Add(time.Duration(seed) * time.Minute)
		g.Update(now)
		body, err := g.Snapshot(now.Add(time.Second))
		if err != nil {
			panic(err)
		}
		docs = append(docs, string(body))
	}
	return docs
}

func checkAgainstReference(t *testing.T, e *Extractor, ref *referenceExtractor, doc string) {
	t.Helper()
	if got, want := e.Extract(doc), ref.Extract(doc); !slices.Equal(got, want) {
		t.Fatalf("Extract differs from the reference on %q:\n got %q\nwant %q", doc, got, want)
	}
}

func FuzzExtractMatchesReference(f *testing.F) {
	for _, s := range ruleFragments {
		f.Add(s)
	}
	f.Add(generatorDocs(1, 1)[0])
	f.Add(strings.Repeat("Ⱥ", 20) + "<ttl>5</ttl>")
	e, ref := RSSProfile(), newReferenceRSS()
	f.Fuzz(func(t *testing.T, doc string) {
		checkAgainstReference(t, e, ref, doc)
	})
}

// lineCases are single lines at the edges of the per-line rules: Go
// regexp's case folding (ſ, U+017F, is s and the Kelvin sign, U+212A, is
// k under (?i), but neither is a \b word character), optional groups dropped when the \b after them
// fails, alternation fall-through and ISO 8601's missing \b.
var lineCases = []struct{ line, want string }{
	{"ſun, 01 May 2006 UTC", "ſun, 01 May 2006 UTC"},
	{"ſun, 01 May 2006 00:00:00 UTC", "ſun, 01 May 2006  UTC"}, // the clock rule still fires
	{"xſun, 01 May 2006", "x"},
	{"Mon\u212a, 01 May 2006 00:00:00 GMT", ""}, // Kelvin sign
	{"Mon, 01 May 2006 G\u212a", ""},
	{"Sun, 1 Dec 2024 am", ""},
	{"Mon, 01 May 20061 x", "1 x"},
	{"Mon, 01 May 2006 00:00:00 GMTXY", "Y"},
	{"Mon, 01 May 2006 00:00:00 +0000 rest", " rest"},
	{"rendered in 12 seconds", ""},
	{"rendered in 12 ſx", "x"},
	{"3 visitors so farm", " so farm"},
	{"3 visitorſ", "ſ"},
	{"12024-01-01T10:00Z", "1"},
	{`<div class="x-ads">`, ""},
	{`<p valid="ad">`, ""},
	{`<p class="bad">`, `<p class="bad">`},
}

func TestExtractLineEdgeCases(t *testing.T) {
	e, ref := RSSProfile(), newReferenceRSS()
	for _, c := range lineCases {
		var want []string
		if c.want != "" {
			want = []string{c.want}
		}
		if got := e.Extract(c.line); !slices.Equal(got, want) {
			t.Errorf("Extract(%q) = %q, want %q", c.line, got, want)
		}
		checkAgainstReference(t, e, ref, c.line)
	}
}

// TestIndexDigitOrEq checks the word-at-a-time scan against a byte loop
// for every byte value in every lane of a word and in the tail.
func TestIndexDigitOrEq(t *testing.T) {
	for n := 1; n <= 17; n++ {
		for pos := 0; pos < n; pos++ {
			for b := 0; b < 256; b++ {
				s := []byte(strings.Repeat("a\xff", n)[:n])
				s[pos] = byte(b)
				want := -1
				if isDigit(byte(b)) || b == '=' {
					want = pos
				}
				if got := indexDigitOrEq(s); got != want {
					t.Fatalf("indexDigitOrEq(%q) = %d, want %d", s, got, want)
				}
			}
		}
	}
}

// FuzzExtractLineMatchesReference checks single lines, where the
// per-line rules do their work, against the reference.
func FuzzExtractLineMatchesReference(f *testing.F) {
	for _, c := range lineCases {
		f.Add(c.line)
	}
	for _, s := range ruleFragments {
		f.Add(s)
	}
	e, ref := RSSProfile(), newReferenceRSS()
	f.Fuzz(func(t *testing.T, line string) {
		checkAgainstReference(t, e, ref, strings.ReplaceAll(line, "\n", " "))
	})
}

// referenceExtractor is the regexp pipeline Extract replaced, kept as the
// oracle Extract must match byte for byte. It differs from the pipeline
// it was in two places only, both bug fixes: tag matching folds ASCII
// letters only (asciiLower instead of strings.ToLower), and lines are
// trimmed of "\r" as well as " \t".
type referenceExtractor struct {
	volatileTags  []string
	volatileAttrs []*regexp.Regexp
	volatileLine  []*regexp.Regexp
	inlinePatches []*regexp.Regexp
}

func newReferenceRSS() *referenceExtractor {
	e := &referenceExtractor{
		volatileTags: []string{"script", "style"},
		volatileAttrs: []*regexp.Regexp{
			regexp.MustCompile(`(?i)(class|id)\s*=\s*"[^"]*\b(ad|ads|advert|banner|sponsor|promo)\b`),
		},
		volatileLine: []*regexp.Regexp{
			regexp.MustCompile(`(?i)^\s*<!--.*-->\s*$`),
		},
		inlinePatches: []*regexp.Regexp{
			// RFC 1123 / RFC 822 style dates: Mon, 02 Jan 2006 15:04:05 GMT
			regexp.MustCompile(`(?i)\b(mon|tue|wed|thu|fri|sat|sun)[a-z]*,?\s+\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\s+\d{2,4}(\s+\d{1,2}:\d{2}(:\d{2})?)?(\s+[a-z]{2,4}|\s+[+-]\d{4})?`),
			// ISO 8601 timestamps.
			regexp.MustCompile(`\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(:\d{2})?(\.\d+)?(Z|[+-]\d{2}:?\d{2})?`),
			// Bare clocks.
			regexp.MustCompile(`\b\d{1,2}:\d{2}:\d{2}\b`),
			// Hit counters and render-time banners.
			regexp.MustCompile(`(?i)\b(page )?(generated|rendered|served) in \d+(\.\d+)?\s*(ms|s|seconds|milliseconds)\b`),
			regexp.MustCompile(`(?i)\b\d+\s+(visitors?|hits|views)( so far| today)?\b`),
		},
	}
	for _, tag := range []string{"lastBuildDate", "ttl", "skipHours", "skipDays", "cloud", "generator"} {
		e.volatileTags = append(e.volatileTags, asciiLower(tag))
	}
	return e
}

func (e *referenceExtractor) Extract(doc string) []string {
	doc = stripBlocks(doc, "<!--", "-->")
	for _, tag := range e.volatileTags {
		doc = stripTag(doc, tag)
	}
	lines := splitLines(doc)
	out := make([]string, 0, len(lines))
	for _, line := range lines {
		skip := false
		for _, re := range e.volatileLine {
			if re.MatchString(line) {
				skip = true
				break
			}
		}
		if !skip {
			for _, re := range e.volatileAttrs {
				if re.MatchString(line) {
					skip = true
					break
				}
			}
		}
		if skip {
			continue
		}
		for _, re := range e.inlinePatches {
			line = re.ReplaceAllString(line, "")
		}
		line = strings.TrimRight(line, " \t\r")
		if line == "" {
			continue
		}
		out = append(out, line)
	}
	return out
}

// splitLines splits a document into lines without the trailing newline
// artifacts that would make diffs unstable.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// asciiLower lowercases ASCII letters only, keeping every byte offset.
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// stripBlocks removes every region delimited by open/close markers,
// tolerating unterminated blocks (dropped to end of input).
func stripBlocks(doc, open, close string) string {
	if !strings.Contains(doc, open) {
		return doc
	}
	var sb strings.Builder
	for {
		i := strings.Index(doc, open)
		if i < 0 {
			sb.WriteString(doc)
			return sb.String()
		}
		sb.WriteString(doc[:i])
		rest := doc[i+len(open):]
		j := strings.Index(rest, close)
		if j < 0 {
			return sb.String()
		}
		doc = rest[j+len(close):]
	}
}

// stripTag removes <tag ...>...</tag> regions (case-insensitive), as well
// as self-closing <tag ... /> forms.
func stripTag(doc, tag string) string {
	lower := asciiLower(doc)
	openTag := "<" + tag
	closeTag := "</" + tag + ">"
	var sb strings.Builder
	for {
		i := indexTagStart(lower, openTag)
		if i < 0 {
			sb.WriteString(doc)
			return sb.String()
		}
		sb.WriteString(doc[:i])
		// Find the end of the opening tag.
		gt := strings.Index(lower[i:], ">")
		if gt < 0 {
			return sb.String()
		}
		if gt >= 1 && lower[i+gt-1] == '/' {
			// Self-closing.
			doc = doc[i+gt+1:]
			lower = lower[i+gt+1:]
			continue
		}
		j := strings.Index(lower[i:], closeTag)
		if j < 0 {
			return sb.String()
		}
		doc = doc[i+j+len(closeTag):]
		lower = lower[i+j+len(closeTag):]
	}
}

// indexTagStart finds an occurrence of openTag that is a real tag start
// (followed by whitespace, '>', or '/'), so "<a" does not match "<article".
func indexTagStart(lower, openTag string) int {
	from := 0
	for {
		i := strings.Index(lower[from:], openTag)
		if i < 0 {
			return -1
		}
		i += from
		end := i + len(openTag)
		if end >= len(lower) {
			return -1
		}
		switch lower[end] {
		case ' ', '\t', '\n', '\r', '>', '/':
			return i
		}
		from = i + 1
	}
}
