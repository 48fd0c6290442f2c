package pastry

import (
	"sort"

	"corona/internal/ids"
)

// leafSet tracks the k numerically closest neighbors on each side of this
// node on the ring. It provides the final routing step and supplies the
// f-closest neighbors that replicate channel ownership (paper §3.3).
type leafSet struct {
	self ids.ID
	k    int
	// cw holds neighbors clockwise from self (increasing ID, wrapping),
	// nearest first; ccw likewise counter-clockwise.
	cw  []Addr
	ccw []Addr
}

func newLeafSet(self ids.ID, k int) *leafSet {
	return &leafSet{self: self, k: k}
}

// cwDist is the clockwise arc length from self to id.
func (l *leafSet) cwDist(id ids.ID) ids.ID { return id.Sub(l.self) }

// ccwDist is the counter-clockwise arc length from self to id.
func (l *leafSet) ccwDist(id ids.ID) ids.ID { return l.self.Sub(id) }

// add considers addr for membership on both sides. It reports whether the
// leaf set changed.
func (l *leafSet) add(addr Addr) bool {
	if addr.ID == l.self || addr.IsZero() {
		return false
	}
	changed := insertSorted(&l.cw, addr, l.k, l.cwDist)
	changed = insertSorted(&l.ccw, addr, l.k, l.ccwDist) || changed
	return changed
}

// insertSorted places addr in the side slice ordered by dist, keeping at
// most k entries, and reports whether the slice changed.
func insertSorted(side *[]Addr, addr Addr, k int, dist func(ids.ID) ids.ID) bool {
	s := *side
	if containsID(s, addr.ID) {
		return false
	}
	d := dist(addr.ID)
	pos := sort.Search(len(s), func(i int) bool {
		return dist(s[i].ID).Cmp(d) > 0
	})
	if pos >= k {
		return false
	}
	s = append(s, Addr{})
	copy(s[pos+1:], s[pos:])
	s[pos] = addr
	if len(s) > k {
		s = s[:k]
	}
	*side = s
	return true
}

// remove drops the identifier from both sides, reporting whether anything
// was removed.
func (l *leafSet) remove(id ids.ID) bool {
	removed := false
	for _, side := range []*[]Addr{&l.cw, &l.ccw} {
		s := *side
		for i, a := range s {
			if a.ID == id {
				*side = append(s[:i], s[i+1:]...)
				removed = true
				break
			}
		}
	}
	return removed
}

// contains reports whether the identifier is in the leaf set.
func (l *leafSet) contains(id ids.ID) bool {
	return containsID(l.cw, id) || containsID(l.ccw, id)
}

// all returns the distinct members of the leaf set: cw, then the ccw
// members not already on the cw side. A side holds at most k entries, so
// the linear membership check beats a map.
func (l *leafSet) all() []Addr {
	out := make([]Addr, 0, len(l.cw)+len(l.ccw))
	out = append(out, l.cw...)
	for _, a := range l.ccw {
		if !containsID(l.cw, a.ID) {
			out = append(out, a)
		}
	}
	return out
}

// containsID reports whether side holds the identifier.
func containsID(side []Addr, id ids.ID) bool {
	for _, a := range side {
		if a.ID == id {
			return true
		}
	}
	return false
}

// closest returns up to k distinct members ordered by ring distance from
// self, nearest first.
func (l *leafSet) closest(k int) []Addr {
	members := l.all()
	sort.Slice(members, func(i, j int) bool {
		di := l.self.Distance(members[i].ID)
		dj := l.self.Distance(members[j].ID)
		if c := di.Cmp(dj); c != 0 {
			return c < 0
		}
		return members[i].ID.Cmp(members[j].ID) < 0
	})
	if len(members) > k {
		members = members[:k]
	}
	return members
}

// closestToKey returns the leaf set member (or self) numerically closest
// to key, together with whether that member is self. It scans both sides
// in place, allocating nothing: a member listed on both sides is simply
// seen twice, which cannot change the minimum.
func (l *leafSet) closestToKey(key ids.ID) (Addr, bool) {
	best := Addr{ID: l.self}
	bestDist := l.self.Distance(key)
	for _, side := range [2][]Addr{l.cw, l.ccw} {
		for _, a := range side {
			d := a.ID.Distance(key)
			switch c := d.Cmp(bestDist); {
			case c < 0:
				best, bestDist = a, d
			case c == 0 && a.ID.Cmp(best.ID) < 0:
				// Break exact ties toward the smaller identifier so every
				// node resolves the same root for a key.
				best = a
			}
		}
	}
	return best, best.ID == l.self
}

// coversKey reports whether key falls inside the span of the leaf set,
// meaning the closest-node decision is authoritative (standard Pastry
// final-hop rule).
func (l *leafSet) coversKey(key ids.ID) bool {
	if len(l.cw) == 0 || len(l.ccw) == 0 {
		return len(l.cw) == 0 && len(l.ccw) == 0 // alone in the ring
	}
	lo := l.ccw[len(l.ccw)-1].ID // farthest counter-clockwise member
	hi := l.cw[len(l.cw)-1].ID   // farthest clockwise member
	if containsID(l.cw, lo) {
		// The sides overlap, so the leaf set holds every node this node
		// knows of and spans the whole ring; (lo, hi] would leave out the
		// arcs on either side of self.
		return true
	}
	return key.Between(lo, hi) || key == l.self
}
