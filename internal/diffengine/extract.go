package diffengine

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
)

// Extractor isolates the core content of a polled document before
// comparison, so that superficial differences — timestamps, hit counters,
// advertisements, generator banners — do not register as updates
// (paper §3.4).
//
// Extract applies these rules, in this order:
//
//  1. Every "<!-- ... -->" region is cut out of the document; an
//     unterminated comment runs to the end of the document.
//  2. For each volatile tag in turn — script and style, then those added
//     with WithVolatileTag — every "<tag ...>...</tag>" region and every
//     self-closing "<tag .../>" is cut out. A tag starts at "<tag"
//     followed by a space, tab, newline, carriage return, '>' or '/', so
//     "<a" does not match "<article". An unterminated element runs to the
//     end of the document. Tag names match case-insensitively in ASCII
//     only: non-ASCII bytes must match exactly, and every cut keeps the
//     document's byte offsets, whatever runes it holds.
//  3. The rest is split into lines at '\n'. A line that is only a comment
//     ("<!--...-->" between optional whitespace) is dropped, and so is a
//     line whose class or id attribute names an ad, ads, advert, banner,
//     sponsor or promo.
//  4. From each remaining line, in this order, are blanked: RFC 1123
//     dates ("Mon, 02 Jan 2006 15:04:05 GMT"), ISO 8601 timestamps, bare
//     HH:MM:SS clocks, "generated in N ms"-style render times and
//     "N visitors/hits/views" counters.
//  5. Trailing spaces, tabs and carriage returns are trimmed, so the
//     result does not depend on the origin's line endings, and lines left
//     empty are dropped.
//
// The zero value is not usable; construct with NewExtractor. An Extractor
// is safe for concurrent use.
type Extractor struct {
	tags []volatileTag
}

// volatileTag holds the ASCII-lowercased open and close markers of one
// element whose content Extract drops.
type volatileTag struct {
	open  []byte // "<name"
	close []byte // "</name>"
}

// Option customizes an Extractor.
type Option func(*Extractor)

// WithVolatileTag adds an element name whose entire content is dropped
// (beyond the built-in script/style/comment handling). Feed-specific
// profiles add, for example, RSS's lastBuildDate.
func WithVolatileTag(tag string) Option {
	return func(e *Extractor) { e.addTag(tag) }
}

func (e *Extractor) addTag(tag string) {
	name := appendFoldASCII(nil, []byte(tag))
	e.tags = append(e.tags, volatileTag{
		open:  append([]byte("<"), name...),
		close: append(append([]byte("</"), name...), '>'),
	})
}

// NewExtractor builds an extractor with the built-in rules (see
// Extractor) plus the given options.
func NewExtractor(opts ...Option) *Extractor {
	e := &Extractor{}
	e.addTag("script")
	e.addTag("style")
	for _, o := range opts {
		o(e)
	}
	return e
}

// RSSProfile returns an extractor tuned for RSS/Atom micronews documents:
// in addition to the built-in heuristics it drops the per-poll bookkeeping
// elements the standards define (lastBuildDate, ttl, skipHours, skipDays,
// cloud) which change or reorder without the feed carrying news.
func RSSProfile() *Extractor {
	return NewExtractor(
		WithVolatileTag("lastBuildDate"),
		WithVolatileTag("ttl"),
		WithVolatileTag("skipHours"),
		WithVolatileTag("skipDays"),
		WithVolatileTag("cloud"),
		WithVolatileTag("generator"),
	)
}

// The per-line rules. Each runs only on lines that pass a cheap test for
// a substring every match must contain, so most lines cost a byte scan.
var (
	// Needs '='.
	adAttr = regexp.MustCompile(`(?i)(class|id)\s*=\s*"[^"]*\b(ad|ads|advert|banner|sponsor|promo)\b`)
	// RFC 1123 / RFC 822 style dates: Mon, 02 Jan 2006 15:04:05 GMT.
	// Needs whitespace followed by a digit.
	rfc1123 = regexp.MustCompile(`(?i)\b(mon|tue|wed|thu|fri|sat|sun)[a-z]*,?\s+\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\s+\d{2,4}(\s+\d{1,2}:\d{2}(:\d{2})?)?(\s+[a-z]{2,4}|\s+[+-]\d{4})?`)
	// ISO 8601 timestamps. Needs "D-DD-D" (D a digit).
	iso8601 = regexp.MustCompile(`\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(:\d{2})?(\.\d+)?(Z|[+-]\d{2}:?\d{2})?`)
	// Bare clocks. Needs "D:DD:D".
	clock = regexp.MustCompile(`\b\d{1,2}:\d{2}:\d{2}\b`)
	// Render-time banners. Needs a space followed by a digit.
	renderTime = regexp.MustCompile(`(?i)\b(page )?(generated|rendered|served) in \d+(\.\d+)?\s*(ms|s|seconds|milliseconds)\b`)
	// Hit counters. Needs a digit followed by whitespace.
	hitCounter = regexp.MustCompile(`(?i)\b\d+\s+(visitors?|hits|views)( so far| today)?\b`)
)

// Extract returns the core-content lines of a document. The output is the
// canonical form handed to Compute; two documents with equal extractions
// carry no germane update. It copies doc and extracts the copy with
// ExtractBytes.
func (e *Extractor) Extract(doc string) []string {
	return e.ExtractBytes([]byte(doc))
}

// ExtractBytes is Extract for a document held in bytes the caller hands
// over: the cuts run in place in doc, so the caller must not use doc
// afterwards. The text left after the cuts is copied once into a string;
// lines that no per-line rule changes are substrings of it, not copies.
func (e *Extractor) ExtractBytes(doc []byte) []string {
	text := string(e.cut(doc))
	out := make([]string, 0, strings.Count(text, "\n")+1)
	for text != "" {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if line = extractLine(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// Changed reports whether two documents differ in core content.
func (e *Extractor) Changed(old, new string) bool {
	a, b := e.Extract(old), e.Extract(new)
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// DiffDocuments extracts both documents and computes the delta between
// their core contents.
func (e *Extractor) DiffDocuments(old, new string, oldVersion, newVersion uint64) *Diff {
	return Compute(e.Extract(old), e.Extract(new), oldVersion, newVersion)
}

// extractLine applies the per-line rules, returning "" for a dropped line.
func extractLine(line string) string {
	if isCommentLine(line) || strings.IndexByte(line, '=') >= 0 && adAttr.MatchString(line) {
		return ""
	}
	if hasDigit(line) {
		if hasSpaceDigit(line) {
			line = blank(rfc1123, line)
		}
		if hasDigitRun(line, '-') {
			line = blank(iso8601, line)
		}
		if hasDigitRun(line, ':') {
			line = blank(clock, line)
		}
		if hasSpaceDigit(line) {
			line = blank(renderTime, line)
		}
		if hasDigitSpace(line) {
			line = blank(hitCounter, line)
		}
	}
	return strings.TrimRight(line, " \t\r")
}

// blank deletes every match of re from line; a line without one is
// returned as is, without a copy. None of the rules matches the empty
// string, so this equals re.ReplaceAllString(line, "").
func blank(re *regexp.Regexp, line string) string {
	locs := re.FindAllStringIndex(line, -1)
	if locs == nil {
		return line
	}
	var sb strings.Builder
	sb.Grow(len(line))
	last := 0
	for _, loc := range locs {
		sb.WriteString(line[last:loc[0]])
		last = loc[1]
	}
	sb.WriteString(line[last:])
	return sb.String()
}

// isCommentLine reports whether line is "<!--", anything, "-->" between
// optional whitespace (the regexp `^\s*<!--.*-->\s*$`).
func isCommentLine(line string) bool {
	t := strings.Trim(line, "\t\n\f\r ")
	return len(t) >= len("<!---->") && strings.HasPrefix(t, "<!--") && strings.HasSuffix(t, "-->")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isSpace is the regexp class \s.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if isDigit(s[i]) {
			return true
		}
	}
	return false
}

func hasSpaceDigit(s string) bool {
	for i := 1; i < len(s); i++ {
		if isDigit(s[i]) && isSpace(s[i-1]) {
			return true
		}
	}
	return false
}

func hasDigitSpace(s string) bool {
	for i := 1; i < len(s); i++ {
		if isSpace(s[i]) && isDigit(s[i-1]) {
			return true
		}
	}
	return false
}

// hasDigitRun reports whether s contains "D<sep>DD<sep>D", D a digit.
func hasDigitRun(s string, sep byte) bool {
	for i := 1; i+4 < len(s); i++ {
		if s[i] == sep && s[i+3] == sep && isDigit(s[i-1]) && isDigit(s[i+1]) && isDigit(s[i+2]) && isDigit(s[i+4]) {
			return true
		}
	}
	return false
}

// cut applies the comment and volatile-tag cuts in place and returns
// what is left of doc.
func (e *Extractor) cut(doc []byte) []byte {
	if bytes.IndexByte(doc, '<') < 0 {
		return doc
	}
	scratch := foldPool.Get().(*[]byte)
	c := cutter{text: doc, lower: appendFoldASCII((*scratch)[:0], doc)}
	c.cutComments()
	for _, t := range e.tags {
		c.cutTag(t)
	}
	*scratch = c.lower[:0]
	foldPool.Put(scratch)
	return c.text
}

// foldPool holds the ASCII-folded twins cut searches, so a poll does not
// allocate one the size of its document.
var foldPool = sync.Pool{New: func() any { return new([]byte) }}

// cutter removes regions from a document found by searching its
// ASCII-lowercased twin. ASCII folding keeps every byte offset, so each
// cut applies to both at the same positions.
type cutter struct {
	text  []byte // the document's remaining bytes
	lower []byte // their ASCII-folded twin
}

var (
	commentOpen  = []byte("<!--")
	commentClose = []byte("-->")
)

// cutComments removes every "<!-- ... -->" region.
func (c *cutter) cutComments() {
	w, pos := 0, 0
	for {
		i := bytes.Index(c.lower[pos:], commentOpen)
		if i < 0 {
			w = c.keep(w, pos, len(c.lower))
			break
		}
		i += pos
		w = c.keep(w, pos, i)
		j := bytes.Index(c.lower[i+len(commentOpen):], commentClose)
		if j < 0 {
			break
		}
		pos = i + len(commentOpen) + j + len(commentClose)
	}
	c.truncate(w)
}

// cutTag removes every <tag ...>...</tag> region and self-closing
// <tag ... /> form.
func (c *cutter) cutTag(t volatileTag) {
	w, pos := 0, 0
	for {
		i := c.indexTagStart(pos, t.open)
		if i < 0 {
			w = c.keep(w, pos, len(c.lower))
			break
		}
		w = c.keep(w, pos, i)
		gt := bytes.IndexByte(c.lower[i:], '>')
		if gt < 0 {
			break
		}
		if c.lower[i+gt-1] == '/' {
			pos = i + gt + 1
			continue
		}
		j := bytes.Index(c.lower[i:], t.close)
		if j < 0 {
			break
		}
		pos = i + j + len(t.close)
	}
	c.truncate(w)
}

// indexTagStart finds, at or after from, an occurrence of open that is a
// real tag start (followed by whitespace, '>' or '/'), so "<a" does not
// match "<article".
func (c *cutter) indexTagStart(from int, open []byte) int {
	for {
		i := bytes.Index(c.lower[from:], open)
		if i < 0 {
			return -1
		}
		i += from
		end := i + len(open)
		if end >= len(c.lower) {
			return -1
		}
		switch c.lower[end] {
		case ' ', '\t', '\n', '\r', '>', '/':
			return i
		}
		from = i + 1
	}
}

// keep moves bytes [from, to) of the current pass down to offset w and
// returns the offset after them. Bytes a pass skips over are cut.
func (c *cutter) keep(w, from, to int) int {
	if w != from {
		copy(c.text[w:], c.text[from:to])
		copy(c.lower[w:], c.lower[from:to])
	}
	return w + to - from
}

// truncate ends a pass that kept w bytes.
func (c *cutter) truncate(w int) {
	c.text = c.text[:w]
	c.lower = c.lower[:w]
}

// appendFoldASCII appends s to dst with its ASCII letters lowercased and
// every other byte as it is, so the result keeps the offsets of s.
func appendFoldASCII(dst, s []byte) []byte {
	n := len(dst)
	dst = append(dst, s...)
	for i, c := range dst[n:] {
		if 'A' <= c && c <= 'Z' {
			dst[n+i] = c + 'a' - 'A'
		}
	}
	return dst
}
