package diffengine

import (
	"encoding/binary"
	"math/bits"
)

// The per-line rules. Each is a hand-written matcher equal to a Go
// regexp, kept in extract_test.go as the reference Extract must match:
//
//	ad attribute: (?i)(class|id)\s*=\s*"[^"]*\b(ad|ads|advert|banner|sponsor|promo)\b
//	RFC 1123 date: (?i)\b(mon|tue|wed|thu|fri|sat|sun)[a-z]*,?\s+\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\s+\d{2,4}(\s+\d{1,2}:\d{2}(:\d{2})?)?(\s+[a-z]{2,4}|\s+[+-]\d{4})?
//	ISO 8601: \d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(:\d{2})?(\.\d+)?(Z|[+-]\d{2}:?\d{2})?
//	clock: \b\d{1,2}:\d{2}:\d{2}\b
//	render time: (?i)\b(page )?(generated|rendered|served) in \d+(\.\d+)?\s*(ms|s|seconds|milliseconds)\b
//	hit counter: (?i)\b\d+\s+(visitors?|hits|views)( so far| today)?\b
//
// A matcher finds the match Go's leftmost-first search finds: the
// leftmost start, and at that start the first match in the order greedy
// quantifiers and alternation try them. Where a later part of a pattern
// can fail, the matcher backs up the way the regexp does, such as from
// "s" to "seconds" when no \b follows the "s". As in Go's regexp, \b, \d
// and \s are ASCII-only, and (?i) folds ASCII letters plus ſ (U+017F) as
// s and the Kelvin sign (U+212A) as k: the only non-ASCII runes in the
// fold orbit of an ASCII letter, so [a-z] under (?i) matches them too. No
// byte of a multi-byte or invalid UTF-8 sequence is an ASCII word
// character, so checking \b on bytes agrees with the regexp's check on
// runes, whatever the input holds.

// extractLine applies the per-line rules to line in place and returns
// what is left of it, empty for a dropped line.
func extractLine(line []byte) []byte {
	if isCommentLine(line) {
		return nil
	}
	f := classify(line)
	if f&hasEq != 0 && adAttr(line) {
		return nil
	}
	for _, r := range inlineRules {
		if f&r.needs == 0 {
			continue
		}
		if blank(&line, r.find) {
			f = classify(line)
		}
	}
	for len(line) > 0 {
		switch line[len(line)-1] {
		case ' ', '\t', '\r':
			line = line[:len(line)-1]
			continue
		}
		break
	}
	return line
}

// inlineRules are the blanking rules in the order they apply, each with
// a line feature every one of its matches contains.
var inlineRules = []struct {
	needs lineFlags
	find  func(s []byte, from int) (start, end int)
}{
	{spaceDigit, findRFC1123},
	{dashRun, findISO8601},
	{colonRun, findClock},
	{spaceDigit, findRenderTime},
	{digitSpace, findHitCounter},
}

// blank deletes, in place, every match find reports in *line, scanning
// left to right from the end of the previous match, and reports whether
// it found any. Kept bytes only move down, behind the scan, so find sees
// the line as it was, including the byte before each search for \b.
func blank(line *[]byte, find func(s []byte, from int) (int, int)) bool {
	s := *line
	w, pos := 0, 0
	for {
		a, b := find(s, pos)
		if a < 0 {
			break
		}
		if w != pos {
			copy(s[w:], s[pos:a])
		}
		w += a - pos
		pos = b
	}
	if pos == 0 {
		return false
	}
	w += copy(s[w:], s[pos:])
	*line = s[:w]
	return true
}

// lineFlags are line features the rules need: one classification scan
// decides which rules can match.
type lineFlags uint8

const (
	hasEq      lineFlags = 1 << iota // '='
	spaceDigit                       // whitespace then a digit
	digitSpace                       // a digit then whitespace
	dashRun                          // "D-DD-D", D a digit
	colonRun                         // "D:DD:D"
)

// Byte classes for classify.
const (
	clsOther = iota
	clsDigit
	clsSpace
	clsEq
	clsDash
	clsColon
	numClasses
)

var byteClass = func() (t [256]uint8) {
	for c := '0'; c <= '9'; c++ {
		t[c] = clsDigit
	}
	for _, c := range "\t\n\f\r " {
		t[c] = clsSpace
	}
	t['='] = clsEq
	t['-'] = clsDash
	t[':'] = clsColon
	return t
}()

// pairFlags maps the classes of two adjacent bytes to the features the
// pair shows. A digit then '-' or ':' stands for the run flag until
// classify checks the whole run.
var pairFlags = func() (t [numClasses * numClasses]lineFlags) {
	for prev := range numClasses {
		t[prev*numClasses+clsEq] = hasEq
	}
	t[clsSpace*numClasses+clsDigit] = spaceDigit
	t[clsDigit*numClasses+clsSpace] = digitSpace
	t[clsDigit*numClasses+clsDash] = dashRun
	t[clsDigit*numClasses+clsColon] = colonRun
	return t
}()

// classify scans line for the features in lineFlags. Each feature holds a
// digit or '=', so the scan skips to the first of those a word at a time.
func classify(s []byte) lineFlags {
	i := indexDigitOrEq(s)
	if i < 0 {
		return 0
	}
	var f lineFlags
	if i == 0 {
		f = pairFlags[byteClass[s[0]]]
		i = 1
	}
	for ; i < len(s); i++ {
		f |= pairFlags[byteClass[s[i-1]]*numClasses+byteClass[s[i]]]
	}
	if f&dashRun != 0 && !hasDigitRun(s, '-') {
		f &^= dashRun
	}
	if f&colonRun != 0 && !hasDigitRun(s, ':') {
		f &^= colonRun
	}
	return f
}

// indexDigitOrEq returns the index of the first digit or '=' in s, or -1.
func indexDigitOrEq(s []byte) int {
	const (
		low7 = 0x7f7f7f7f7f7f7f7f
		high = 0x8080808080808080
		rep  = 0x0101010101010101 // times a byte, that byte in every lane
	)
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := binary.LittleEndian.Uint64(s[i:])
		// Per byte, with t its low 7 bits: t+0x50 sets the high bit when
		// t >= '0' and t+0x46 when t > '9'; neither carries out of the
		// byte. A byte with its own high bit set is neither.
		t := x & low7
		digit := (t + rep*(0x80-'0')) &^ (t + rep*(0x80-'9'-1))
		z := x ^ rep*'='
		eq := ^((z & low7) + low7 | z)
		if m := (digit | eq) &^ x & high; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(s); i++ {
		if c := s[i]; isDigit(c) || c == '=' {
			return i
		}
	}
	return -1
}

// hasDigitRun reports whether s contains "D<sep>DD<sep>D", D a digit.
func hasDigitRun(s []byte, sep byte) bool {
	for i := 1; i+4 < len(s); i++ {
		if s[i] == sep && s[i+3] == sep && isDigit(s[i-1]) && isDigit(s[i+1]) && isDigit(s[i+2]) && isDigit(s[i+4]) {
			return true
		}
	}
	return false
}

// isCommentLine reports whether line is "<!--", anything, "-->" between
// optional whitespace (the regexp `^\s*<!--.*-->\s*$`).
func isCommentLine(s []byte) bool {
	i, j := 0, len(s)
	for i < j && isSpace(s[i]) {
		i++
	}
	for j > i && isSpace(s[j-1]) {
		j--
	}
	t := s[i:j]
	return len(t) >= len("<!---->") && string(t[:4]) == "<!--" && string(t[len(t)-3:]) == "-->"
}

var (
	adWords = []string{"ad", "ads", "advert", "banner", "sponsor", "promo"}
	days    = []string{"mon", "tue", "wed", "thu", "fri", "sat", "sun"}
	months  = []string{"jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec"}
	verbs   = []string{"generated", "rendered", "served"}
	units   = []string{"ms", "s", "seconds", "milliseconds"}
	counted = []string{"hits", "views"}
	since   = []string{" so far", " today"}
)

// adAttr reports whether line has a class or id attribute naming an ad.
// The line is dropped on any match, so only existence matters.
func adAttr(s []byte) bool {
	for p := range s {
		i := foldLit(s, p, "class")
		if i < 0 {
			i = foldLit(s, p, "id")
		}
		if i < 0 {
			continue
		}
		i = skipSpaces(s, i)
		if i >= len(s) || s[i] != '=' {
			continue
		}
		i = skipSpaces(s, i+1)
		if i >= len(s) || s[i] != '"' {
			continue
		}
		// [^"]* then a word: the word starts before the closing quote.
		for q := i + 1; q < len(s) && s[q] != '"'; q++ {
			if !boundary(s, q) {
				continue
			}
			for _, w := range adWords {
				if e := foldLit(s, q, w); e >= 0 && boundary(s, e) {
					return true
				}
			}
		}
	}
	return false
}

func findRFC1123(s []byte, from int) (int, int) {
	for p := from; p < len(s); p++ {
		if dayInitial[s[p]] && boundary(s, p) {
			if e := rfc1123At(s, p); e >= 0 {
				return p, e
			}
		}
	}
	return -1, -1
}

// dayInitial holds the bytes a day name can start with under (?i),
// 0xc5 leading ſ.
var dayInitial = func() (t [256]bool) {
	for _, c := range []byte("mtwfsMTWFS\xc5") {
		t[c] = true
	}
	return t
}()

// rfc1123At returns the end of the RFC 1123 date match starting at p, or
// -1. Each quantifier is followed by something it cannot consume, so its
// greedy choice is the only one that can succeed, and the optional time
// and zone groups each take their first success.
func rfc1123At(s []byte, p int) int {
	i := foldAny(s, p, days)
	if i < 0 {
		return -1
	}
	i = skipLetters(s, i)
	if i < len(s) && s[i] == ',' {
		i++
	}
	if i = skipSpaces1(s, i); i < 0 {
		return -1
	}
	n := digitRun(s, i)
	if n < 1 || n > 2 {
		return -1
	}
	if i = skipSpaces1(s, i+n); i < 0 {
		return -1
	}
	if i = foldAny(s, i, months); i < 0 {
		return -1
	}
	i = skipLetters(s, i)
	if i = skipSpaces1(s, i); i < 0 {
		return -1
	}
	if n = digitRun(s, i); n < 2 {
		return -1
	}
	i += min(n, 4)
	// (\s+\d{1,2}:\d{2}(:\d{2})?)?
	if j := skipSpaces1(s, i); j >= 0 {
		if n := digitRun(s, j); n >= 1 && n <= 2 && digitsAfter(s, j+n, ':', 2) {
			i = j + n + 3
			if digitsAfter(s, i, ':', 2) {
				i += 3
			}
		}
	}
	// (\s+[a-z]{2,4}|\s+[+-]\d{4})?
	if j := skipSpaces1(s, i); j >= 0 && j < len(s) {
		k, letters := j, 0
		for letters < 4 {
			_, w := foldedLetter(s, k)
			if w == 0 {
				break
			}
			k += w
			letters++
		}
		if letters >= 2 {
			return k
		}
		if (s[j] == '+' || s[j] == '-') && digitRun(s, j+1) >= 4 {
			return j + 5
		}
	}
	return i
}

// findISO8601 has no \b to anchor it, so a match can start inside a
// longer run of digits.
func findISO8601(s []byte, from int) (int, int) {
	for p := from; p+16 <= len(s); p++ {
		if e := iso8601At(s, p); e >= 0 {
			return p, e
		}
	}
	return -1, -1
}

func iso8601At(s []byte, p int) int {
	if digitRun(s, p) < 4 || !digitsAfter(s, p+4, '-', 2) || !digitsAfter(s, p+7, '-', 2) ||
		(s[p+10] != 'T' && s[p+10] != ' ') || digitRun(s, p+11) < 2 || !digitsAfter(s, p+13, ':', 2) {
		return -1
	}
	i := p + 16
	if digitsAfter(s, i, ':', 2) {
		i += 3
	}
	if i+1 < len(s) && s[i] == '.' && isDigit(s[i+1]) {
		i += 1 + digitRun(s, i+1)
	}
	if i < len(s) {
		switch s[i] {
		case 'Z':
			i++
		case '+', '-':
			// [+-]\d{2}:?\d{2}: a ':' is taken when two digits follow it.
			if digitRun(s, i+1) >= 2 {
				if j := i + 3; digitsAfter(s, j, ':', 2) {
					i = j + 3
				} else if digitRun(s, j) >= 2 {
					i = j + 2
				}
			}
		}
	}
	return i
}

func findClock(s []byte, from int) (int, int) {
	for p := from; p < len(s); p++ {
		if !isDigit(s[p]) || !boundary(s, p) {
			continue
		}
		n := digitRun(s, p)
		if n <= 2 && digitsAfter(s, p+n, ':', 2) && digitsAfter(s, p+n+3, ':', 2) {
			if e := p + n + 6; boundary(s, e) {
				return p, e
			}
		}
	}
	return -1, -1
}

func findRenderTime(s []byte, from int) (int, int) {
	for p := from; p < len(s); p++ {
		if boundary(s, p) {
			if e := renderTimeAt(s, p); e >= 0 {
				return p, e
			}
		}
	}
	return -1, -1
}

// renderTimeAt returns the end of the render-time match starting at p, or
// -1. "page " cannot be dropped for a verb at the same start, and the
// digits, fraction and spaces each end where the next part must begin;
// only the unit backtracks, in alternation order, until \b follows it.
func renderTimeAt(s []byte, p int) int {
	i := p
	if j := foldLit(s, i, "page "); j >= 0 {
		i = j
	}
	if i = foldAny(s, i, verbs); i < 0 {
		return -1
	}
	if i = foldLit(s, i, " in "); i < 0 {
		return -1
	}
	n := digitRun(s, i)
	if n == 0 {
		return -1
	}
	i += n
	if i+1 < len(s) && s[i] == '.' && isDigit(s[i+1]) {
		i += 1 + digitRun(s, i+1)
	}
	i = skipSpaces(s, i)
	for _, u := range units {
		if e := foldLit(s, i, u); e >= 0 && boundary(s, e) {
			return e
		}
	}
	return -1
}

func findHitCounter(s []byte, from int) (int, int) {
	for p := from; p < len(s); p++ {
		if isDigit(s[p]) && boundary(s, p) {
			if e := hitCounterAt(s, p); e >= 0 {
				return p, e
			}
		}
	}
	return -1, -1
}

// hitCounterAt returns the end of the hit-counter match starting at p, or
// -1. "visitors" backs up to "visitor" when no \b can follow it.
func hitCounterAt(s []byte, p int) int {
	i := skipSpaces1(s, p+digitRun(s, p))
	if i < 0 {
		return -1
	}
	if j := foldLit(s, i, "visitor"); j >= 0 {
		if l, w := foldedLetter(s, j); l == 's' {
			if e := hitTail(s, j+w); e >= 0 {
				return e
			}
		}
		return hitTail(s, j)
	}
	if j := foldAny(s, i, counted); j >= 0 {
		return hitTail(s, j)
	}
	return -1
}

// hitTail matches ( so far| today)?\b at i, dropping the group when no
// \b follows it.
func hitTail(s []byte, i int) int {
	if e := foldAny(s, i, since); e >= 0 && boundary(s, e) {
		return e
	}
	if boundary(s, i) {
		return i
	}
	return -1
}

// foldLit matches lit, lowercase ASCII, at s[i:] under (?i) and returns
// the end of the match, or -1.
func foldLit(s []byte, i int, lit string) int {
	for k := 0; k < len(lit); k++ {
		c := lit[k]
		if 'a' <= c && c <= 'z' {
			l, w := foldedLetter(s, i)
			if l != c {
				return -1
			}
			i += w
			continue
		}
		if i >= len(s) || s[i] != c {
			return -1
		}
		i++
	}
	return i
}

// foldAny is foldLit for the first of alts that matches. Callers pass
// alternatives of which at most one can match at i, or that are in the
// order the regexp tries them.
func foldAny(s []byte, i int, alts []string) int {
	if i >= len(s) {
		return -1
	}
	l, _ := foldedLetter(s, i)
	for _, a := range alts {
		if a[0] != l && a[0] != s[i] {
			continue
		}
		if e := foldLit(s, i, a); e >= 0 {
			return e
		}
	}
	return -1
}

// foldedLetter returns the lowercase ASCII letter (?i) equates with the
// rune at s[i:] and the rune's width, or width 0 when it is not one:
// ASCII letters, ſ (U+017F, as s) and K (U+212A, as k).
func foldedLetter(s []byte, i int) (byte, int) {
	if i >= len(s) {
		return 0, 0
	}
	switch c := s[i]; {
	case 'a' <= c && c <= 'z':
		return c, 1
	case 'A' <= c && c <= 'Z':
		return c + 'a' - 'A', 1
	case c == 0xc5 && i+1 < len(s) && s[i+1] == 0xbf:
		return 's', 2
	case c == 0xe2 && i+2 < len(s) && s[i+1] == 0x84 && s[i+2] == 0xaa:
		return 'k', 3
	}
	return 0, 0
}

// skipLetters skips [a-z]* under (?i).
func skipLetters(s []byte, i int) int {
	for {
		_, w := foldedLetter(s, i)
		if w == 0 {
			return i
		}
		i += w
	}
}

// skipSpaces skips \s*.
func skipSpaces(s []byte, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

// skipSpaces1 skips \s+, returning -1 when no whitespace is at i.
func skipSpaces1(s []byte, i int) int {
	if j := skipSpaces(s, i); j > i {
		return j
	}
	return -1
}

// digitRun returns the number of digits starting at s[i].
func digitRun(s []byte, i int) int {
	n := 0
	for i+n < len(s) && isDigit(s[i+n]) {
		n++
	}
	return n
}

// digitsAfter reports whether sep followed by n digits is at s[i:].
func digitsAfter(s []byte, i int, sep byte, n int) bool {
	return i < len(s) && s[i] == sep && digitRun(s, i+1) >= n
}

// boundary is \b at i: an ASCII word character on exactly one side.
func boundary(s []byte, i int) bool {
	return isWordAt(s, i-1) != isWordAt(s, i)
}

func isWordAt(s []byte, i int) bool {
	if i < 0 || i >= len(s) {
		return false
	}
	c := s[i]
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isSpace is the regexp class \s.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}
