package feed

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Generator produces and evolves one synthetic micronews feed. Each call
// to Update publishes fresh items and retires old ones, keeping the
// document size near the configured target so that, as in the Cornell
// survey, a typical update changes a small fraction of the content
// (≈17 lines, ≈6.8% of bytes, [19]).
type Generator struct {
	// URL names the channel.
	URL string
	// Title is the channel's headline.
	Title string
	// TargetItems is the number of items retained in the window.
	TargetItems int
	// ItemsPerUpdate is how many fresh items each update publishes.
	ItemsPerUpdate int
	// IncludeTimestampChurn, when set, refreshes lastBuildDate on every
	// snapshot (even unchanged ones), the superficial churn the
	// difference engine must ignore.
	IncludeTimestampChurn bool

	rng     *rand.Rand
	nextID  int
	current *RSS
}

// NewGenerator creates a feed generator with deterministic content
// derived from seed.
func NewGenerator(url string, seed int64) *Generator {
	g := &Generator{
		URL:                   url,
		Title:                 "Feed " + shortName(url),
		TargetItems:           15,
		ItemsPerUpdate:        2,
		IncludeTimestampChurn: true,
		rng:                   rand.New(rand.NewSource(seed)),
	}
	return g
}

var headlineNouns = []string{
	"overlay", "protocol", "router", "campus", "kernel", "election",
	"market", "telescope", "senate", "storm", "pipeline", "reactor",
	"festival", "league", "expedition", "archive",
}

var headlineVerbs = []string{
	"announces", "releases", "postpones", "confirms", "disputes",
	"measures", "deploys", "repairs", "adopts", "retires", "expands",
	"audits",
}

var bodyWords = []string{
	"the", "update", "reports", "that", "users", "observed", "steady",
	"progress", "across", "several", "regions", "while", "engineers",
	"continue", "to", "monitor", "performance", "and", "latency",
	"numbers", "published", "this", "week", "show", "improvement",
}

// makeItem fabricates one item with a unique GUID.
func (g *Generator) makeItem(now time.Time) RSSItem {
	g.nextID++
	title := fmt.Sprintf("%s %s %s",
		strings.Title(headlineNouns[g.rng.Intn(len(headlineNouns))]),
		headlineVerbs[g.rng.Intn(len(headlineVerbs))],
		headlineNouns[g.rng.Intn(len(headlineNouns))])
	var body []string
	for n := 8 + g.rng.Intn(16); n > 0; n-- {
		body = append(body, bodyWords[g.rng.Intn(len(bodyWords))])
	}
	return RSSItem{
		Title:       title,
		Link:        fmt.Sprintf("%s/story/%d", g.URL, g.nextID),
		GUID:        fmt.Sprintf("%s#%d", g.URL, g.nextID),
		PubDate:     now.UTC().Format(time.RFC1123),
		Description: strings.Join(body, " "),
	}
}

// Bootstrap fills the feed with its initial window of items.
func (g *Generator) Bootstrap(now time.Time) *RSS {
	r := &RSS{
		Version: "2.0",
		Channel: RSSChannel{
			Title:       g.Title,
			Link:        g.URL,
			Description: "synthetic micronews feed for the Corona evaluation",
			TTL:         30,
			Generator:   "corona-feedgen",
		},
	}
	for i := 0; i < g.TargetItems; i++ {
		r.Channel.Items = append([]RSSItem{g.makeItem(now)}, r.Channel.Items...)
	}
	r.SetBuildTime(now)
	g.current = r
	return r
}

// Update publishes ItemsPerUpdate fresh items at the head of the feed,
// trims the tail to TargetItems, and returns the new document.
func (g *Generator) Update(now time.Time) *RSS {
	if g.current == nil {
		return g.Bootstrap(now)
	}
	items := g.current.Channel.Items
	for i := 0; i < g.ItemsPerUpdate; i++ {
		items = append([]RSSItem{g.makeItem(now)}, items...)
	}
	if len(items) > g.TargetItems {
		items = items[:g.TargetItems]
	}
	next := *g.current
	next.Channel.Items = items
	next.SetBuildTime(now)
	g.current = &next
	return &next
}

// Snapshot returns the current document rendered as XML. When
// IncludeTimestampChurn is set, lastBuildDate reflects the snapshot time,
// so two snapshots of unchanged content still differ superficially.
func (g *Generator) Snapshot(now time.Time) ([]byte, error) {
	if g.current == nil {
		g.Bootstrap(now)
	}
	doc := *g.current
	if g.IncludeTimestampChurn {
		doc.SetBuildTime(now)
	}
	return doc.Encode()
}

func shortName(url string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}
