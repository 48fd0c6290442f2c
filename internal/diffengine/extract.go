package diffengine

import (
	"bytes"
	"math/bits"
	"strings"
	"unsafe"
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
//     "N visitors/hits/views" counters. Each rule matches exactly what
//     its Go regexp in linerules.go matches, each on the output of the
//     one before.
//  5. Trailing spaces, tabs and carriage returns are trimmed, so the
//     result does not depend on the origin's line endings, and lines left
//     empty are dropped.
//
// Case folding follows Go's regexp package. Tag names (rule 2) fold
// ASCII letters only. The per-line rules (3 and 4) fold ASCII letters
// and also take ſ (U+017F) for s and the Kelvin sign (U+212A) for k, the
// two non-ASCII runes Unicode case folding pairs with an ASCII letter; a
// letter range such as a day name's tail takes them too. Their word
// boundaries, digits and whitespace are ASCII-only, so neither rune is a
// word character.
//
// The zero value is not usable; construct with NewExtractor. An Extractor
// is safe for concurrent use.
type Extractor struct {
	tags  []volatileTag
	reach int // bytes a cut marker spans, its delimiter included
	// next[b] holds the counted cut passes (see cut) whose marker can
	// have b right after its '<'.
	next [256]uint64
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
	name := []byte(tag)
	for i, c := range name {
		name[i] = lowerASCII(c)
	}
	t := volatileTag{
		open:  append([]byte("<"), name...),
		close: append(append([]byte("</"), name...), '>'),
	}
	e.tags = append(e.tags, t)
	e.reach = max(e.reach, len(commentOpen), len(t.open)+1)
	if pass := len(e.tags); pass < maxCounted {
		for b := range e.next {
			if len(name) == 0 || lowerASCII(byte(b)) == name[0] {
				e.next[b] |= 1 << pass
			}
		}
	}
}

// NewExtractor builds an extractor with the built-in rules (see
// Extractor) plus the given options.
func NewExtractor(opts ...Option) *Extractor {
	e := &Extractor{}
	e.next['!'] = 1 // pass 0, comments
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

// Extract returns the core-content lines of a document. The output is the
// canonical form handed to Compute; two documents with equal extractions
// carry no germane update. It is ExtractDiff of a copy of doc against no
// previous content, so each line is a string of its own.
func (e *Extractor) Extract(doc string) []string {
	content, _ := e.ExtractDiff(nil, []byte(doc), 0, 0)
	return content
}

// ExtractDiff extracts doc, a document the caller hands over, and diffs
// its core content against prev, the content of version prevVersion. It
// returns the new content and the diff from prev to it: the same lines
// as Extract(string(doc)) and the same diff as Compute(prev, those lines,
// prevVersion, newVersion), so Encode renders it byte for byte the same.
// The cuts and the per-line rules run in place in doc, so the caller must
// not use doc afterwards; nothing returned refers to it.
//
// The kept lines are compared with prev where they lie in doc, without
// being copied. The new content shares lines instead: each unchanged
// line is prev's own string, and each inserted line is copied into a
// string of its own, which is also what the diff's hunks hold. No line
// pins a larger allocation (a whole document, or another version's
// lines), and an update allocates only the content slice, the diff with
// its hunk list, and the inserted lines. When nothing changed, the
// content is prev itself.
func (e *Extractor) ExtractDiff(prev []string, doc []byte, prevVersion, newVersion uint64) ([]string, *Diff) {
	sc := myersPool.Get().(*myersScratch)
	defer myersPool.Put(sc)
	views := e.lines(e.cut(doc), sc.lines[:0])
	// The views alias doc: none may outlive this call or stay in the pool.
	defer func() { clear(views); sc.lines = views[:0] }()
	d := &Diff{OldVersion: prevVersion, NewVersion: newVersion, Ops: myersOps(prev, views, sc)}
	if len(d.Ops) == 0 {
		return prev, d
	}
	content := make([]string, 0, len(views))
	cursor := 0 // the next line of prev to keep
	for i := range d.Ops {
		op := &d.Ops[i]
		upTo := op.Old - 1
		if op.Kind == OpAdd {
			upTo = op.Old
		}
		content = append(content, prev[cursor:upTo]...)
		cursor = upTo + op.OldCount
		start := len(content)
		for _, l := range op.NewLines {
			content = append(content, strings.Clone(l))
		}
		op.NewLines = content[start:len(content):len(content)]
	}
	return append(content, prev[cursor:]...), d
}

// lines runs the per-line rules over doc, which the cuts have already
// run over, and appends to dst each kept line as a string that aliases
// doc: valid only while doc is neither changed nor reused.
func (e *Extractor) lines(doc []byte, dst []string) []string {
	for pos := 0; pos < len(doc); {
		end := bytes.IndexByte(doc[pos:], '\n')
		if end < 0 {
			end = len(doc)
		} else {
			end += pos
		}
		line := extractLine(doc[pos:end])
		pos = end + 1
		if len(line) > 0 {
			dst = append(dst, unsafe.String(&line[0], len(line)))
		}
	}
	return dst
}

// cut applies the comment and volatile-tag cuts in place and returns
// what is left of doc. Pass 0 cuts comments and pass k the k-th volatile
// tag, in that order, each on the text the earlier passes left. One scan
// over the '<' bytes counts each pass's markers; a pass with none is
// skipped, and a pass stops searching once it has met as many as were
// counted. A cut joins the text on either side of it, which can create a
// marker only across the join, so after a pass only the bytes just before
// each join are counted again. Passes from the 64th on are not counted
// and always search to the end of the text.
func (e *Extractor) cut(doc []byte) []byte {
	c := cutter{e: e, text: doc}
	c.count(0, len(doc), 0)
	for pass := 0; pass <= len(e.tags); pass++ {
		limit := -1
		if pass < maxCounted {
			if limit = c.counts[pass]; limit == 0 {
				continue
			}
		}
		c.nj = 0
		if pass == 0 {
			c.cutComments(limit)
		} else {
			c.cutTag(e.tags[pass-1], limit)
		}
		if c.nj > len(c.joins) {
			clear(c.counts[min(pass+1, maxCounted):])
			c.count(0, len(c.text), pass+1)
			continue
		}
		for _, w := range c.joins[:c.nj] {
			c.count(max(w-e.reach+1, 0), w, pass+1)
		}
	}
	return c.text
}

// maxCounted is the number of cut passes whose markers cut counts.
const maxCounted = 64

// cutter removes regions from a document in place.
type cutter struct {
	e    *Extractor
	text []byte // the document's remaining bytes

	// counts[p] is at least the number of pass p's markers in text: a
	// cut can remove counted markers, and may leave them counted.
	counts [maxCounted]int

	// The current pass's joins: offsets in text where it put bytes that
	// were not adjacent before. nj counts past len(joins) when more joins
	// happened than fit.
	joins [8]int
	nj    int
}

var (
	commentOpen  = []byte("<!--")
	commentClose = []byte("-->")
)

// count adds to counts the markers of passes from first on that start at
// a '<' in text[from:to]. A marker may end past to.
func (c *cutter) count(from, to, first int) {
	if first >= maxCounted {
		return
	}
	for from < to {
		i := bytes.IndexByte(c.text[from:to], '<')
		if i < 0 || from+i+1 == len(c.text) {
			return
		}
		i += from
		from = i + 1
		for m := c.e.next[c.text[from]] >> first << first; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			if p == 0 && bytes.HasPrefix(c.text[i:], commentOpen) || p > 0 && c.tagAt(i, c.e.tags[p-1].open) {
				c.counts[p]++
			}
		}
	}
}

// cutComments removes every "<!-- ... -->" region, stopping its search
// after limit of them when limit is not negative.
func (c *cutter) cutComments(limit int) {
	w, pos := 0, 0
	for met := 0; ; met++ {
		i := -1
		if met != limit {
			if i = bytes.Index(c.text[pos:], commentOpen); i >= 0 {
				i += pos
			}
		}
		if i < 0 {
			w = c.keep(w, pos, len(c.text))
			break
		}
		w = c.keep(w, pos, i)
		j := bytes.Index(c.text[i+len(commentOpen):], commentClose)
		if j < 0 {
			break
		}
		pos = i + len(commentOpen) + j + len(commentClose)
	}
	c.text = c.text[:w]
}

// cutTag removes every <tag ...>...</tag> region and self-closing
// <tag ... /> form, stopping its search after limit tag starts when limit
// is not negative.
func (c *cutter) cutTag(t volatileTag, limit int) {
	w, pos := 0, 0
	for met := 0; ; met++ {
		i := -1
		if met != limit {
			i = c.indexTag(pos, t.open)
		}
		if i < 0 {
			w = c.keep(w, pos, len(c.text))
			break
		}
		w = c.keep(w, pos, i)
		gt := bytes.IndexByte(c.text[i:], '>')
		if gt < 0 {
			break
		}
		if c.text[i+gt-1] == '/' {
			pos = i + gt + 1
			continue
		}
		j := c.indexFold(i, t.close)
		if j < 0 {
			break
		}
		pos = j + len(t.close)
	}
	c.text = c.text[:w]
}

// indexTag finds, at or after from, the first tag start for open.
func (c *cutter) indexTag(from int, open []byte) int {
	for {
		i := c.indexFold(from, open)
		if i < 0 || c.tagAt(i, open) {
			return i
		}
		from = i + 1
	}
}

// tagAt reports whether a real tag start for open is at i: open, matched
// with ASCII folding, followed by whitespace, '>' or '/', so "<a" does
// not match "<article".
func (c *cutter) tagAt(i int, open []byte) bool {
	end := i + len(open)
	if end >= len(c.text) || !hasFoldPrefix(c.text[i:], open) {
		return false
	}
	switch c.text[end] {
	case ' ', '\t', '\n', '\r', '>', '/':
		return true
	}
	return false
}

// indexFold finds, at or after from, the first occurrence of marker, an
// ASCII-lowercased string starting with '<', matched with ASCII folding.
func (c *cutter) indexFold(from int, marker []byte) int {
	for {
		i := bytes.IndexByte(c.text[from:], '<')
		if i < 0 {
			return -1
		}
		i += from
		if hasFoldPrefix(c.text[i:], marker) {
			return i
		}
		from = i + 1
	}
}

// keep moves bytes [from, to) of the current pass down to offset w and
// returns the offset after them. Bytes a pass skips over are cut; the
// first bytes kept after a cut are joined to the text before it at w.
func (c *cutter) keep(w, from, to int) int {
	if w != from {
		if c.nj == 0 || c.nj > len(c.joins) || c.joins[c.nj-1] != w {
			if c.nj < len(c.joins) {
				c.joins[c.nj] = w
			}
			c.nj++
		}
		copy(c.text[w:], c.text[from:to])
	}
	return w + to - from
}

// hasFoldPrefix reports whether s starts with lower, an ASCII-lowercased
// string, when ASCII letters in s are folded to lower case.
func hasFoldPrefix(s, lower []byte) bool {
	if len(s) < len(lower) {
		return false
	}
	for i, c := range lower {
		if lowerASCII(s[i]) != c {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
