package diffengine

import (
	"fmt"
	"strconv"
	"strings"
)

// Encode renders the diff in a compact, line-oriented text format modeled
// on POSIX diff output, prefixed with the version pair. It is the wire
// representation disseminated between Corona nodes and relayed to IM
// clients (paper §3.4).
//
// Format:
//
//	CORONA-DIFF v<old> <new>
//	<old>a                      (addition after line <old>)
//	inserted line
//	.
//	<old>,<count>d              (omission of <count> lines at <old>)
//	<old>,<count>c              (replacement)
//	replacement line
//	.
//
// Each hunk's inserted lines follow its header verbatim and end with a
// lone "." line; a line that begins with "." gets one more, as in SMTP.
// Every line, the last included, ends with "\n".
func Encode(d *Diff) string {
	var sb strings.Builder
	sb.Grow(encodedSizeBound(d))
	sb.WriteString("CORONA-DIFF v")
	writeUint(&sb, d.OldVersion)
	sb.WriteByte(' ')
	writeUint(&sb, d.NewVersion)
	sb.WriteByte('\n')
	for _, op := range d.Ops {
		switch op.Kind {
		case OpAdd:
			writeUint(&sb, uint64(op.Old))
			sb.WriteString("a\n")
			writeLines(&sb, op.NewLines)
		case OpDelete:
			writeRange(&sb, op)
			sb.WriteString("d\n")
		case OpReplace:
			writeRange(&sb, op)
			sb.WriteString("c\n")
			writeLines(&sb, op.NewLines)
		}
	}
	return sb.String()
}

// maxUintDigits is the length of the longest decimal uint64.
const maxUintDigits = 20

// encodedSizeBound bounds the length of Encode(d) from above, taking
// every number at its widest, so Encode allocates its output once.
func encodedSizeBound(d *Diff) int {
	size := len("CORONA-DIFF v \n") + 2*maxUintDigits
	for _, op := range d.Ops {
		size += 2*maxUintDigits + len(",c\n")
		if op.Kind == OpDelete {
			continue
		}
		for _, l := range op.NewLines {
			size += len(".\n") + len(l)
		}
		size += len(".\n")
	}
	return size
}

func writeUint(sb *strings.Builder, v uint64) {
	var buf [maxUintDigits]byte
	sb.Write(strconv.AppendUint(buf[:0], v, 10))
}

// writeRange writes a hunk header's "<old>,<count>".
func writeRange(sb *strings.Builder, op Op) {
	writeUint(sb, uint64(op.Old))
	sb.WriteByte(',')
	writeUint(sb, uint64(op.OldCount))
}

func writeLines(sb *strings.Builder, lines []string) {
	for _, l := range lines {
		if strings.HasPrefix(l, ".") {
			sb.WriteByte('.')
		}
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	sb.WriteString(".\n")
}

// Decode parses the textual representation produced by Encode. It is the
// exact inverse of Encode: given the encoding of a diff Compute produced
// from lines that hold no '\n', Decode returns that diff. Lines are split
// at '\n' only, so a '\r' a line carries survives the round trip; a final
// line may omit its '\n'.
func Decode(s string) (*Diff, error) {
	r := lineReader{s: s}
	header, ok := r.next()
	if !ok {
		return nil, fmt.Errorf("diffengine: empty diff")
	}
	oldV, newV, err := parseHeader(header)
	if err != nil {
		return nil, err
	}
	d := &Diff{OldVersion: oldV, NewVersion: newV}
	for {
		line, ok := r.next()
		if !ok {
			return d, nil
		}
		op, needsBody, err := parseOpHeader(line)
		if err != nil {
			return nil, err
		}
		if needsBody {
			if op.NewLines, err = r.body(); err != nil {
				return nil, err
			}
		}
		d.Ops = append(d.Ops, op)
	}
}

// lineReader yields the '\n'-terminated lines of s as substrings.
type lineReader struct{ s string }

func (r *lineReader) next() (string, bool) {
	if r.s == "" {
		return "", false
	}
	line := r.s
	if i := strings.IndexByte(r.s, '\n'); i >= 0 {
		line, r.s = r.s[:i], r.s[i+1:]
	} else {
		r.s = ""
	}
	return line, true
}

// body reads hunk lines up to the terminating ".", undoing dot-stuffing.
func (r *lineReader) body() ([]string, error) {
	var lines []string
	for {
		l, ok := r.next()
		if !ok {
			return nil, fmt.Errorf("diffengine: unterminated hunk body")
		}
		if l == "." {
			return lines, nil
		}
		lines = append(lines, strings.TrimPrefix(l, "."))
	}
}

// Versions reads the version pair from the header line of an encoded
// diff without decoding its hunks, so a receiver can skip a diff whose
// base it does not hold for the cost of one line.
func Versions(s string) (oldV, newV uint64, err error) {
	header, _, _ := strings.Cut(s, "\n")
	return parseHeader(header)
}

func parseHeader(line string) (oldV, newV uint64, err error) {
	rest, ok := strings.CutPrefix(line, "CORONA-DIFF v")
	o, n, ok2 := strings.Cut(rest, " ")
	if ok && ok2 {
		oldV, err = strconv.ParseUint(o, 10, 64)
		if err == nil {
			newV, err = strconv.ParseUint(n, 10, 64)
		}
		if err == nil {
			return oldV, newV, nil
		}
	}
	return 0, 0, fmt.Errorf("diffengine: bad header %q", line)
}

func parseOpHeader(line string) (Op, bool, error) {
	if line == "" {
		return Op{}, false, fmt.Errorf("diffengine: empty hunk header")
	}
	kind := line[len(line)-1]
	spec := line[:len(line)-1]
	switch OpKind(kind) {
	case OpAdd:
		n, err := strconv.Atoi(spec)
		if err != nil {
			return Op{}, false, fmt.Errorf("diffengine: bad add hunk %q", line)
		}
		return Op{Kind: OpAdd, Old: n}, true, nil
	case OpDelete, OpReplace:
		o, c, ok := strings.Cut(spec, ",")
		if !ok {
			return Op{}, false, fmt.Errorf("diffengine: bad hunk %q", line)
		}
		old, err1 := strconv.Atoi(o)
		count, err2 := strconv.Atoi(c)
		if err1 != nil || err2 != nil || count < 1 {
			return Op{}, false, fmt.Errorf("diffengine: bad hunk %q", line)
		}
		return Op{Kind: OpKind(kind), Old: old, OldCount: count}, OpKind(kind) == OpReplace, nil
	}
	return Op{}, false, fmt.Errorf("diffengine: unknown hunk kind in %q", line)
}
