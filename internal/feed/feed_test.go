package feed

import (
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2006, 5, 1, 12, 0, 0, 0, time.UTC)

func TestRSSEncodeParseRoundTrip(t *testing.T) {
	r := &RSS{
		Version: "2.0",
		Channel: RSSChannel{
			Title:       "Test Feed",
			Link:        "http://example.com/feed.xml",
			Description: "d",
			TTL:         30,
			Cloud:       &RSSCloud{Domain: "cloud.example.com", Port: 80, Path: "/rpc", RegisterProcedure: "notify", Protocol: "xml-rpc"},
			SkipHours:   &SkipList{Hours: []int{0, 1, 2}},
			SkipDays:    &SkipList{Days: []string{"Saturday", "Sunday"}},
			Items: []RSSItem{
				{Title: "story", Link: "http://example.com/1", GUID: "g1", Description: "body"},
			},
		},
	}
	r.SetBuildTime(t0)
	doc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRSS(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Channel.Title != "Test Feed" || len(back.Channel.Items) != 1 {
		t.Fatalf("round trip lost data: %+v", back.Channel)
	}
	if back.Channel.Cloud == nil || back.Channel.Cloud.Port != 80 {
		t.Fatalf("cloud tag lost: %+v", back.Channel.Cloud)
	}
	if back.Channel.SkipHours == nil || len(back.Channel.SkipHours.Hours) != 3 {
		t.Fatalf("skipHours lost: %+v", back.Channel.SkipHours)
	}
	if back.Channel.Items[0].GUID != "g1" {
		t.Fatalf("item GUID lost")
	}
}

func TestParseRSSRejectsGarbage(t *testing.T) {
	if _, err := ParseRSS([]byte("not xml at all <<<")); err == nil {
		t.Fatal("garbage parsed as RSS")
	}
}

func TestGeneratorBootstrapAndUpdate(t *testing.T) {
	g := NewGenerator("http://example.com/feed.xml", 1)
	r := g.Bootstrap(t0)
	if len(r.Channel.Items) != g.TargetItems {
		t.Fatalf("bootstrap has %d items, want %d", len(r.Channel.Items), g.TargetItems)
	}
	before := r.GUIDs()
	r2 := g.Update(t0.Add(time.Hour))
	if len(r2.Channel.Items) != g.TargetItems {
		t.Fatalf("update grew feed to %d items", len(r2.Channel.Items))
	}
	fresh := NewItems(r, r2)
	if len(fresh) != g.ItemsPerUpdate {
		t.Fatalf("update published %d fresh items, want %d", len(fresh), g.ItemsPerUpdate)
	}
	after := r2.GUIDs()
	if after[0] == before[0] {
		t.Fatal("newest item unchanged after update")
	}
}

func TestGeneratorGUIDsUnique(t *testing.T) {
	g := NewGenerator("http://example.com/f", 2)
	g.Bootstrap(t0)
	seen := map[string]bool{}
	now := t0
	for i := 0; i < 50; i++ {
		now = now.Add(10 * time.Minute)
		r := g.Update(now)
		for _, guid := range r.GUIDs() {
			_ = guid
		}
		for _, it := range r.Channel.Items {
			if it.GUID == "" {
				t.Fatal("empty GUID")
			}
		}
		newest := r.Channel.Items[0].GUID
		if seen[newest] {
			t.Fatalf("GUID %q reused", newest)
		}
		seen[newest] = true
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator("http://example.com/f", 7)
	g2 := NewGenerator("http://example.com/f", 7)
	d1, _ := g1.Snapshot(t0)
	d2, _ := g2.Snapshot(t0)
	if string(d1) != string(d2) {
		t.Fatal("same seed produced different feeds")
	}
	g3 := NewGenerator("http://example.com/f", 8)
	d3, _ := g3.Snapshot(t0)
	if string(d1) == string(d3) {
		t.Fatal("different seeds produced identical feeds")
	}
}

func TestGeneratorTimestampChurn(t *testing.T) {
	g := NewGenerator("http://example.com/f", 3)
	g.Bootstrap(t0)
	a, _ := g.Snapshot(t0.Add(time.Minute))
	b, _ := g.Snapshot(t0.Add(2 * time.Minute))
	if string(a) == string(b) {
		t.Fatal("expected lastBuildDate churn between snapshots")
	}
	// But the item content must be identical.
	ra, _ := ParseRSS(a)
	rb, _ := ParseRSS(b)
	if strings.Join(ra.GUIDs(), ",") != strings.Join(rb.GUIDs(), ",") {
		t.Fatal("snapshot without update changed items")
	}
}

func TestGeneratorUpdateChangesSmallFraction(t *testing.T) {
	// The survey's headline statistic: a typical update touches a few
	// percent of the content. With a 15-item window and 2 fresh items,
	// the byte overlap must be large.
	g := NewGenerator("http://example.com/f", 4)
	g.TargetItems = 30
	g.Bootstrap(t0)
	a, _ := g.Snapshot(t0)
	g.Update(t0.Add(time.Hour))
	b, _ := g.Snapshot(t0.Add(time.Hour))
	aLines := strings.Split(string(a), "\n")
	bLines := make(map[string]bool)
	for _, l := range strings.Split(string(b), "\n") {
		bLines[l] = true
	}
	shared := 0
	for _, l := range aLines {
		if bLines[l] {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(aLines)); frac < 0.80 {
		t.Fatalf("only %.0f%% of lines shared across one update; want ≥80%%", frac*100)
	}
}

func TestNewItemsEmptyWhenUnchanged(t *testing.T) {
	g := NewGenerator("http://example.com/f", 5)
	r := g.Bootstrap(t0)
	if got := NewItems(r, r); len(got) != 0 {
		t.Fatalf("NewItems(self, self) = %d items", len(got))
	}
}
