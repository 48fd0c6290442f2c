// Package diffengine implements Corona's feed-specific difference engine
// (paper §3.4).
//
// The engine determines whether a freshly polled copy of a channel carries
// germane new information. An Extractor reduces the document to its core
// content lines: comments, script and style blocks and volatile elements
// such as RSS's lastBuildDate are cut out, ad lines are dropped, and
// timestamps, clocks, render times and hit counters are blanked (the
// Extractor doc lists the rules). Tag names match case-insensitively in
// ASCII only, and trailing carriage returns are trimmed, so the result
// does not depend on the origin's line endings. Compute then compares the
// core content with the previous version's line by line (Myers' O(ND)
// algorithm) and emits a compact delta. Deltas resemble POSIX diff
// output: each hunk carries the line numbers where the change occurs, the
// changed content, whether it is an addition, omission, or replacement,
// and the version number of the old content to apply against. An edit of
// more than 512 changed lines is one replacement hunk instead, which
// bounds a diff's working memory. Encode and Decode carry a delta as
// text; Apply rebuilds the new version.
//
// A poller detects an update with one call, Extractor.ExtractDiff: it
// extracts the fetched body in place, compares the kept lines with the
// content held without copying them, and returns the diff and the new
// content. The new content shares lines with the old: each unchanged
// line is the old content's own string and each inserted line is a
// string of its own, so an update allocates about what it adds, and no
// kept line holds a whole document (or an older version) in memory.
package diffengine

import (
	"fmt"
	"slices"
	"sync"
)

// OpKind classifies a diff hunk.
type OpKind byte

const (
	// OpAdd inserts NewLines after line Old of the old document.
	OpAdd OpKind = 'a'
	// OpDelete removes OldCount lines starting at line Old (1-based).
	OpDelete OpKind = 'd'
	// OpReplace substitutes OldCount lines starting at line Old with
	// NewLines.
	OpReplace OpKind = 'c'
)

// Op is one contiguous change hunk.
type Op struct {
	// Kind is the hunk type: addition, omission, or replacement.
	Kind OpKind `json:"kind"`
	// Old is the 1-based line number in the old document where the hunk
	// applies. For OpAdd it is the line after which text is inserted
	// (0 inserts at the beginning).
	Old int `json:"old"`
	// OldCount is the number of old lines removed (OpDelete, OpReplace).
	OldCount int `json:"old_count,omitempty"`
	// NewLines is the inserted text (OpAdd, OpReplace).
	NewLines []string `json:"new_lines,omitempty"`
}

// Diff is a complete delta between two versions of a channel's content.
type Diff struct {
	// OldVersion identifies the version this delta applies against
	// (paper §3.4: monotonically increasing version numbers).
	OldVersion uint64 `json:"old_version"`
	// NewVersion identifies the version that results from applying the
	// delta.
	NewVersion uint64 `json:"new_version"`
	// Ops are the hunks in ascending line order.
	Ops []Op `json:"ops"`
}

// Empty reports whether the diff carries no changes.
func (d *Diff) Empty() bool { return len(d.Ops) == 0 }

// LineCount returns the total number of changed lines (added plus
// removed), the measure the Cornell survey reports (≈17 lines per update).
func (d *Diff) LineCount() int {
	n := 0
	for _, op := range d.Ops {
		n += op.OldCount + len(op.NewLines)
	}
	return n
}

// WireSize estimates the bytes needed to transmit the diff, used by the
// bandwidth accounting in the evaluation (delta encoding saves ≈93% of
// content size per the survey's 6.8% average change).
func (d *Diff) WireSize() int {
	size := 16 // version pair
	for _, op := range d.Ops {
		size += 12 // op header
		for _, l := range op.NewLines {
			size += len(l) + 1
		}
	}
	return size
}

// Compute produces the delta from old to new using Myers' O(ND) algorithm
// on lines. Version numbers are the caller's concern. Each hunk's
// NewLines is a subslice of new, capped at its end. An edit of more than
// maxEditDistance inserted and deleted lines is one OpReplace of
// everything between the documents' common prefix and suffix.
func Compute(old, new []string, oldVersion, newVersion uint64) *Diff {
	sc := myersPool.Get().(*myersScratch)
	defer myersPool.Put(sc)
	return &Diff{OldVersion: oldVersion, NewVersion: newVersion, Ops: myersOps(old, new, sc)}
}

// Apply reconstructs the new document from the old one. It returns an
// error if the diff does not fit the document (wrong base version).
func (d *Diff) Apply(old []string) ([]string, error) {
	out := make([]string, 0, len(old)+d.LineCount())
	cursor := 0 // index into old of the next unconsumed line
	for i, op := range d.Ops {
		// Copy unchanged prefix. Op line numbers are 1-based.
		var upTo int
		switch op.Kind {
		case OpAdd:
			upTo = op.Old
		case OpDelete, OpReplace:
			upTo = op.Old - 1
		default:
			return nil, fmt.Errorf("diffengine: op %d has unknown kind %q", i, op.Kind)
		}
		if upTo < cursor || upTo > len(old) {
			return nil, fmt.Errorf("diffengine: op %d at line %d out of range (cursor %d, len %d)", i, op.Old, cursor, len(old))
		}
		out = append(out, old[cursor:upTo]...)
		cursor = upTo
		switch op.Kind {
		case OpAdd:
			out = append(out, op.NewLines...)
		case OpDelete:
			if cursor+op.OldCount > len(old) {
				return nil, fmt.Errorf("diffengine: op %d deletes past end", i)
			}
			cursor += op.OldCount
		case OpReplace:
			if cursor+op.OldCount > len(old) {
				return nil, fmt.Errorf("diffengine: op %d replaces past end", i)
			}
			cursor += op.OldCount
			out = append(out, op.NewLines...)
		}
	}
	out = append(out, old[cursor:]...)
	return out, nil
}

// maxEditDistance caps the edit distance D that Myers' algorithm searches.
// Its trace holds D² ints, so the cap bounds one diff's working memory at
// about 3 MiB however large the documents; a larger edit (a rewritten
// page) is sent whole instead.
const maxEditDistance = 512

// myersOps computes the ops via Myers' greedy O(ND) shortest-edit-script
// algorithm, then coalesces adjacent delete+insert runs into replace ops.
// A hunk's inserted lines are consecutive lines of b, so its NewLines is
// b's own subslice.
func myersOps(a, b []string, sc *myersScratch) []Op {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	// Trim common prefix and suffix; the edit region shrinks and line
	// numbers offset accordingly.
	prefix := 0
	for prefix < n && prefix < m && a[prefix] == b[prefix] {
		prefix++
	}
	suffix := 0
	for suffix < n-prefix && suffix < m-prefix && a[n-1-suffix] == b[m-1-suffix] {
		suffix++
	}
	a = a[prefix : n-suffix]
	b = b[prefix : m-suffix]
	n, m = len(a), len(b)

	script := sc.script[:0]
	switch {
	case n == 0 && m == 0:
		// identical after trimming
	case n == 0:
		for j := 0; j < m; j++ {
			script = append(script, edits{del: false, ai: 0, bi: j})
		}
	case m == 0:
		for i := 0; i < n; i++ {
			script = append(script, edits{del: true, ai: i})
		}
	default:
		var found bool
		if script, found = sc.run(a, b, script); !found {
			sc.script = script
			return []Op{{Kind: OpReplace, Old: prefix + 1, OldCount: n, NewLines: b[:m:m]}}
		}
	}
	sc.script = script
	if len(script) == 0 {
		return nil
	}

	// Group consecutive edits into hunks. Edits belong to the same hunk
	// while they touch a contiguous region of the old document: deletes
	// consume old lines (advancing pos), inserts attach at pos. A first
	// pass counts the hunks, so the ops are allocated once.
	hunks := 0
	for i := 0; i < len(script); hunks++ {
		for pos := script[i].ai; i < len(script) && script[i].ai == pos; i++ {
			if script[i].del {
				pos++
			}
		}
	}
	ops := make([]Op, 0, hunks)
	i := 0
	for i < len(script) {
		hunkStart := script[i].ai
		pos := hunkStart
		firstDel := -1
		delCount := 0
		insFirst, insCount := 0, 0
		for i < len(script) && script[i].ai == pos {
			e := script[i]
			if e.del {
				if firstDel == -1 {
					firstDel = e.ai
				}
				delCount++
				pos++
			} else {
				if insCount == 0 {
					insFirst = e.bi
				}
				insCount++
			}
			i++
		}
		inserted := b[insFirst : insFirst+insCount : insFirst+insCount]
		// Emit the hunk with 1-based line numbers in the untrimmed old doc.
		switch {
		case delCount > 0 && len(inserted) > 0:
			ops = append(ops, Op{Kind: OpReplace, Old: prefix + firstDel + 1, OldCount: delCount, NewLines: inserted})
		case delCount > 0:
			ops = append(ops, Op{Kind: OpDelete, Old: prefix + firstDel + 1, OldCount: delCount})
		case len(inserted) > 0:
			ops = append(ops, Op{Kind: OpAdd, Old: prefix + hunkStart, NewLines: inserted})
		}
	}
	return ops
}

// myersScratch is the working memory of one Myers run: the frontier,
// the trace of every step's frontier, the edit script, and for
// ExtractDiff the extracted lines. Runs take it from myersPool, so a
// steady stream of diffs reuses the same slices.
type myersScratch struct {
	v      []int
	trace  []int
	script []edits
	lines  []string
}

var myersPool = sync.Pool{New: func() any { return new(myersScratch) }}

// run performs the classic greedy forward O(ND) algorithm and backtracks
// the edit script, appending it to script. Backtracking needs the
// frontier of every step, but step d only reaches diagonals -d..d, so the
// trace keeps those 2d+1 entries per step, D² in all, in one flat slice:
// step d's diagonal k sits at trace[d*d+d+k]. It reports false, with
// script unchanged, when D exceeds maxEditDistance.
func (sc *myersScratch) run(a, b []string, script []edits) ([]edits, bool) {
	n, m := len(a), len(b)
	max := min(n+m, maxEditDistance)
	// v[k+max] = furthest x on diagonal k.
	v := slices.Grow(sc.v[:0], 2*max+1)[:2*max+1]
	clear(v)
	sc.v = v
	trace := sc.trace[:0]
	dFound := -1
outer:
	for d := 0; d <= max; d++ {
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+max] < v[k+1+max]) {
				x = v[k+1+max] // down: insert
			} else {
				x = v[k-1+max] + 1 // right: delete
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+max] = x
			if x >= n && y >= m {
				dFound = d
				break outer
			}
		}
		if len(trace)+2*d+1 > cap(trace) {
			// Grow fourfold, and straight to the most the search can
			// keep once that is less than four times further, so even a
			// capped search allocates about its final trace in all.
			want := 4 * (d + 1) * (d + 1)
			if 4*want > (max+1)*(max+1) {
				want = (max + 1) * (max + 1)
			}
			trace = slices.Grow(trace, want-len(trace))
		}
		trace = append(trace, v[max-d:max+d+1]...)
	}
	sc.trace = trace
	if dFound < 0 {
		return script, false
	}
	// Backtrack.
	first := len(script)
	x, y := n, m
	for d := dFound; d > 0; d-- {
		// The frontier after step d-1: diagonal k at prev[k+d-1].
		prev := trace[(d-1)*(d-1) : d*d]
		k := x - y
		var prevK int
		if k == -d || (k != d && prev[k-1+d-1] < prev[k+1+d-1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := prev[prevK+d-1]
		prevY := prevX - prevK
		// Walk back through the snake.
		for x > prevX && y > prevY {
			x--
			y--
		}
		if x == prevX {
			// Down move: insert b[prevY].
			script = append(script, edits{del: false, ai: x, bi: prevY})
		} else {
			// Right move: delete a[prevX].
			script = append(script, edits{del: true, ai: prevX})
		}
		x, y = prevX, prevY
	}
	// Reverse to forward order.
	for i, j := first, len(script)-1; i < j; i, j = i+1, j-1 {
		script[i], script[j] = script[j], script[i]
	}
	return script, true
}

// edits mirrors the edit type used by myersOps; declared at package scope
// so both functions share it.
type edits struct {
	del bool
	ai  int
	bi  int
}
