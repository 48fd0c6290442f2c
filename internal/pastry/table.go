package pastry

import "corona/internal/ids"

// routingTable is the prefix routing table: entry (row i, column j) points
// to a node whose identifier shares exactly i prefix digits with this
// node's identifier and has j as its (i+1)-th digit (paper §3.1).
type routingTable struct {
	self ids.ID
	rows [][]Addr // MaxTableRows rows, each lazily allocated; rows[i][j]
}

func newRoutingTable(self ids.ID) *routingTable {
	return &routingTable{self: self, rows: make([][]Addr, MaxTableRows)}
}

func (t *routingTable) get(row, col int) Addr {
	if row < 0 || row >= MaxTableRows || t.rows[row] == nil {
		return Addr{}
	}
	if col < 0 || col >= ids.Radix {
		return Addr{}
	}
	return t.rows[row][col]
}

// slot returns the (row, col) at which addr belongs in this table, or
// ok=false when addr cannot be placed (it is the node itself, or the
// shared prefix exceeds the table depth).
func (t *routingTable) slot(id ids.ID) (row, col int, ok bool) {
	if id == t.self {
		return 0, 0, false
	}
	row = ids.CommonPrefix(t.self, id)
	if row >= MaxTableRows {
		return 0, 0, false
	}
	col = ids.Digit(id, row)
	return row, col, true
}

// add installs addr if its slot is empty. It reports whether the table
// changed. An occupied slot is kept: any node with the right prefix is
// equally valid (paper §3.3), and keeping the incumbent avoids churn.
func (t *routingTable) add(addr Addr) bool {
	row, col, ok := t.slot(addr.ID)
	if !ok {
		return false
	}
	if t.rows[row] == nil {
		t.rows[row] = make([]Addr, ids.Radix)
	}
	if !t.rows[row][col].IsZero() {
		return false
	}
	t.rows[row][col] = addr
	return true
}

// replace installs addr in its slot even if occupied, returning the
// previous occupant.
func (t *routingTable) replace(addr Addr) Addr {
	row, col, ok := t.slot(addr.ID)
	if !ok {
		return Addr{}
	}
	if t.rows[row] == nil {
		t.rows[row] = make([]Addr, ids.Radix)
	}
	prev := t.rows[row][col]
	t.rows[row][col] = addr
	return prev
}

// remove clears any slot holding the given identifier. It reports whether
// an entry was removed.
func (t *routingTable) remove(id ids.ID) bool {
	row, col, ok := t.slot(id)
	if !ok || t.rows[row] == nil {
		return false
	}
	if t.rows[row][col].ID != id {
		return false
	}
	t.rows[row][col] = Addr{}
	return true
}

// row returns the non-empty entries of row r.
func (t *routingTable) row(r int) []Addr {
	if r < 0 || r >= MaxTableRows || t.rows[r] == nil {
		return nil
	}
	var out []Addr
	for _, a := range t.rows[r] {
		if !a.IsZero() {
			out = append(out, a)
		}
	}
	return out
}

// eachInRow visits every non-empty entry of row r without allocating.
func (t *routingTable) eachInRow(r int, f func(Addr)) {
	if r < 0 || r >= MaxTableRows || t.rows[r] == nil {
		return
	}
	for _, a := range t.rows[r] {
		if !a.IsZero() {
			f(a)
		}
	}
}

// contactCount returns the number of non-empty entries in rows >= fromRow,
// so fan-out can size its destination buffer in one allocation.
func (t *routingTable) contactCount(fromRow int) int {
	n := 0
	for r := fromRow; r >= 0 && r < MaxTableRows; r++ {
		for _, a := range t.rows[r] {
			if !a.IsZero() {
				n++
			}
		}
	}
	return n
}

// each visits every non-empty entry.
func (t *routingTable) each(f func(Addr)) {
	for _, row := range t.rows {
		for _, a := range row {
			if !a.IsZero() {
				f(a)
			}
		}
	}
}

// bestForKey returns the routing entry for key: the entry at
// (commonPrefix(self,key), nextDigit(key)).
func (t *routingTable) bestForKey(key ids.ID) Addr {
	row := ids.CommonPrefix(t.self, key)
	if row >= MaxTableRows {
		return Addr{}
	}
	return t.get(row, ids.Digit(key, row))
}

// closerThanSelf scans for any known node that shares at least prefixLen
// digits with key and is numerically closer to key than self. This is
// Pastry's rare-case fallback when the exact routing entry is missing.
func (t *routingTable) closerThanSelf(key ids.ID, prefixLen int) Addr {
	selfDist := t.self.Distance(key)
	var best Addr
	bestDist := selfDist
	for r := prefixLen; r < MaxTableRows; r++ {
		for _, a := range t.row(r) {
			if ids.CommonPrefix(a.ID, key) < prefixLen {
				continue
			}
			if d := a.ID.Distance(key); d.Cmp(bestDist) < 0 {
				best, bestDist = a, d
			}
		}
	}
	return best
}
