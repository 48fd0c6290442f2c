// Package feed implements the micronews substrate: RSS 2.0 document
// generation and parsing, plus a synthetic feed generator whose
// update behavior follows the Cornell RSS survey the paper's experiments
// are parameterized by (paper §2, §5, [19]).
package feed

import (
	"encoding/xml"
	"fmt"
	"time"
)

// RSS is an RSS 2.0 document ([26]).
type RSS struct {
	XMLName xml.Name   `xml:"rss"`
	Version string     `xml:"version,attr"`
	Channel RSSChannel `xml:"channel"`
}

// RSSChannel is the single channel of an RSS 2.0 document, including the
// publish-subscribe hint tags the standards define (cloud, ttl, skipHours,
// skipDays) that the paper notes are discretionary and rarely honored
// (§2).
type RSSChannel struct {
	Title         string    `xml:"title"`
	Link          string    `xml:"link"`
	Description   string    `xml:"description"`
	Language      string    `xml:"language,omitempty"`
	LastBuildDate string    `xml:"lastBuildDate,omitempty"`
	TTL           int       `xml:"ttl,omitempty"`
	Cloud         *RSSCloud `xml:"cloud,omitempty"`
	SkipHours     *SkipList `xml:"skipHours,omitempty"`
	SkipDays      *SkipList `xml:"skipDays,omitempty"`
	Generator     string    `xml:"generator,omitempty"`
	Items         []RSSItem `xml:"item"`
}

// RSSCloud is the rssCloud element for asynchronous update registration.
type RSSCloud struct {
	Domain            string `xml:"domain,attr"`
	Port              int    `xml:"port,attr"`
	Path              string `xml:"path,attr"`
	RegisterProcedure string `xml:"registerProcedure,attr"`
	Protocol          string `xml:"protocol,attr"`
}

// SkipList holds skipHours/skipDays entries. Note: no omitempty on the
// element lists — hour 0 (midnight) is a legitimate entry.
type SkipList struct {
	Hours []int    `xml:"hour"`
	Days  []string `xml:"day"`
}

// RSSItem is one micronews entry.
type RSSItem struct {
	Title       string `xml:"title"`
	Link        string `xml:"link,omitempty"`
	GUID        string `xml:"guid,omitempty"`
	PubDate     string `xml:"pubDate,omitempty"`
	Description string `xml:"description,omitempty"`
}

// ParseRSS decodes an RSS 2.0 document.
func ParseRSS(doc []byte) (*RSS, error) {
	var r RSS
	if err := xml.Unmarshal(doc, &r); err != nil {
		return nil, fmt.Errorf("feed: parsing RSS: %w", err)
	}
	return &r, nil
}

// Encode renders the document as indented XML with the standard header.
func (r *RSS) Encode() ([]byte, error) {
	body, err := xml.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("feed: encoding RSS: %w", err)
	}
	return append([]byte(xml.Header), append(body, '\n')...), nil
}

// SetBuildTime stamps lastBuildDate in RFC1123 form, the churn the
// difference engine must see through.
func (r *RSS) SetBuildTime(t time.Time) {
	r.Channel.LastBuildDate = t.UTC().Format(time.RFC1123)
}

// GUIDs returns the item GUIDs in order, the identity key for update
// comparison.
func (r *RSS) GUIDs() []string {
	out := make([]string, len(r.Channel.Items))
	for i, it := range r.Channel.Items {
		out[i] = it.GUID
	}
	return out
}

// NewItems returns the items of new whose GUIDs do not appear in old —
// the germane content of an update.
func NewItems(old, new *RSS) []RSSItem {
	seen := make(map[string]bool, len(old.Channel.Items))
	for _, it := range old.Channel.Items {
		seen[it.GUID] = true
	}
	var fresh []RSSItem
	for _, it := range new.Channel.Items {
		if !seen[it.GUID] {
			fresh = append(fresh, it)
		}
	}
	return fresh
}
