package core

import (
	"testing"

	"corona/internal/ids"
	"corona/internal/pastry"
)

func entryAddr(name string) pastry.Addr {
	return pastry.Addr{ID: ids.HashString(name), Endpoint: name}
}

// seededSet holds alice at entry a and bob at entry b.
func seededSet() *subscriberSet {
	s := &subscriberSet{}
	s.add("alice", entryAddr("a"))
	s.add("bob", entryAddr("b"))
	return s
}

// TestSubscriberSetDigestAfterMatchesApply pins the property the replica's
// delta check relies on: the digest predicted before a change equals the
// digest the set holds once the change is applied.
func TestSubscriberSetDigestAfterMatchesApply(t *testing.T) {
	cases := []struct {
		name      string
		client    string
		entry     pastry.Addr
		remove    bool
		changed   bool
		wantCount int
	}{
		{"add new client", "carol", entryAddr("c"), false, true, 3},
		{"re-point existing client", "alice", entryAddr("c"), false, true, 2},
		{"re-add at same entry", "alice", entryAddr("a"), false, false, 2},
		{"remove existing client", "bob", pastry.Addr{}, true, true, 1},
		{"remove missing client", "mallory", pastry.Addr{}, true, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := seededSet()
			before := s.digest()
			predicted := s.digestAfter(tc.client, tc.entry, tc.remove)
			var changed bool
			if tc.remove {
				changed = s.remove(tc.client)
			} else {
				changed = s.add(tc.client, tc.entry)
			}
			if changed != tc.changed {
				t.Fatalf("changed = %v, want %v", changed, tc.changed)
			}
			if got := s.digest(); got != predicted {
				t.Fatalf("digest after op = %#x, digestAfter predicted %#x", got, predicted)
			}
			if !changed && s.digest() != before {
				t.Fatalf("no-op moved the digest: %#x -> %#x", before, s.digest())
			}
			if s.count != tc.wantCount || len(s.ids) != tc.wantCount {
				t.Fatalf("count = %d, ids = %d, want %d", s.count, len(s.ids), tc.wantCount)
			}
		})
	}
}

// TestSubscriberSetReplaceMatchesAdds checks that installing a full push
// gives the digest of adding its records one at a time, including a push
// that lists a client twice (the later record wins, as with add).
func TestSubscriberSetReplaceMatchesAdds(t *testing.T) {
	subs := []replicatedSub{
		{Client: "alice", Entry: entryAddr("a")},
		{Client: "bob", Entry: entryAddr("b")},
		{Client: "carol", Entry: entryAddr("a")},
		{Client: "bob", Entry: entryAddr("c")},
	}
	added := &subscriberSet{}
	for _, sub := range subs {
		added.add(sub.Client, sub.Entry)
	}
	replaced := seededSet()
	replaced.replace(subs)
	if replaced.digest() != added.digest() {
		t.Fatalf("replace digest %#x, one-at-a-time digest %#x", replaced.digest(), added.digest())
	}
	if replaced.count != 3 || added.count != 3 {
		t.Fatalf("counts: replace %d, adds %d, want 3", replaced.count, added.count)
	}
	if replaced.ids["bob"] != entryAddr("c") {
		t.Fatalf("bob's entry = %v, want the later record", replaced.ids["bob"])
	}
}

func TestSubscriberSetClear(t *testing.T) {
	s := seededSet()
	s.clear()
	if s.count != 0 || s.digest() != 0 || len(s.ids) != 0 {
		t.Fatalf("after clear: count %d, digest %#x, ids %d", s.count, s.digest(), len(s.ids))
	}
	// A cleared set accepts adds again.
	if !s.add("alice", entryAddr("a")) || s.digest() != subHash("alice", entryAddr("a")) {
		t.Fatalf("add after clear: digest %#x", s.digest())
	}
}
