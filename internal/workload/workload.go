// Package workload regenerates the RSS workload family the paper's
// experiments are parameterized by (paper §5, [19]).
//
// The Cornell survey found: channel popularity follows a Zipf distribution
// with exponent 0.5; update intervals spread over orders of magnitude,
// with roughly 10% of channels changing within an hour and roughly half
// not changing at all over five days (the simulations cap these at one
// week); contents average a few kilobytes, with a typical update touching
// ≈6.8% of the bytes. This package synthesizes channel populations with
// those marginals, deterministically from a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// ChannelSpec describes one synthesized channel.
type ChannelSpec struct {
	// URL is the channel identity (the Corona topic).
	URL string
	// Subscribers is qᵢ, the number of clients subscribed.
	Subscribers int
	// UpdateInterval is uᵢ, the mean time between content updates.
	UpdateInterval time.Duration
	// SizeBytes is sᵢ, the full content transfer size.
	SizeBytes int
}

// Workload is a complete synthesized experiment population.
type Workload struct {
	// Channels is ordered by decreasing popularity (rank 1 first), as the
	// per-channel figures plot them.
	Channels []ChannelSpec
	// TotalSubscriptions is Σ qᵢ.
	TotalSubscriptions int
}

// Config parameterizes synthesis.
type Config struct {
	// Channels is M, the number of distinct channels.
	Channels int
	// Subscriptions is the total number of client subscriptions to
	// apportion across channels.
	Subscriptions int
	// ZipfExponent is the popularity skew (0.5 in the survey).
	ZipfExponent float64
	// Seed drives all sampling.
	Seed int64
	// URLPrefix prefixes channel URLs (default "http://feeds.example.net/ch").
	URLPrefix string
}

// Generate synthesizes the workload.
func Generate(cfg Config) *Workload {
	if cfg.Channels <= 0 {
		panic("workload: Channels must be positive")
	}
	if cfg.ZipfExponent <= 0 {
		cfg.ZipfExponent = 0.5
	}
	if cfg.URLPrefix == "" {
		cfg.URLPrefix = "http://feeds.example.net/ch"
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	w := &Workload{Channels: make([]ChannelSpec, cfg.Channels)}
	// Zipf popularity: weight of rank r is r^-e; apportion subscriptions
	// proportionally with largest-remainder rounding so totals are exact.
	weights := make([]float64, cfg.Channels)
	var wsum float64
	for r := 0; r < cfg.Channels; r++ {
		weights[r] = math.Pow(float64(r+1), -cfg.ZipfExponent)
		wsum += weights[r]
	}
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, cfg.Channels)
	assigned := 0
	for r := 0; r < cfg.Channels; r++ {
		exact := float64(cfg.Subscriptions) * weights[r] / wsum
		base := int(math.Floor(exact))
		w.Channels[r].Subscribers = base
		assigned += base
		fracs[r] = frac{idx: r, rem: exact - float64(base)}
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].rem != fracs[j].rem {
			return fracs[i].rem > fracs[j].rem
		}
		return fracs[i].idx < fracs[j].idx
	})
	for i := 0; assigned < cfg.Subscriptions && i < len(fracs); i++ {
		w.Channels[fracs[i].idx].Subscribers++
		assigned++
	}
	w.TotalSubscriptions = cfg.Subscriptions

	for r := 0; r < cfg.Channels; r++ {
		w.Channels[r].URL = fmt.Sprintf("%s/%06d.xml", cfg.URLPrefix, r)
		w.Channels[r].UpdateInterval = SampleUpdateInterval(rng)
		w.Channels[r].SizeBytes = SampleContentSize(rng)
	}
	return w
}

// Survey shape constants (paper §5: "about 10% of channels change within
// an hour, while 50% of channels did not change at all during 5 days of
// polling"; unchanged channels are capped at one week, §5.1).
const (
	fracSubHour   = 0.10
	fracUnchanged = 0.50
	minInterval   = 10 * time.Minute
	hourInterval  = time.Hour
	fiveDays      = 5 * 24 * time.Hour
	weekInterval  = 7 * 24 * time.Hour
)

// SampleUpdateInterval draws a channel update interval from the
// survey-shaped distribution: 10% log-uniform in [10 min, 1 h), 40%
// log-uniform in [1 h, 5 d), and 50% pinned at the one-week cap.
func SampleUpdateInterval(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	switch {
	case u < fracSubHour:
		return logUniformDuration(rng, minInterval, hourInterval)
	case u < 1-fracUnchanged:
		return logUniformDuration(rng, hourInterval, fiveDays)
	default:
		return weekInterval
	}
}

// logUniformDuration draws log-uniformly from [lo, hi).
func logUniformDuration(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	return time.Duration(math.Exp(l + rng.Float64()*(h-l)))
}

// SampleContentSize draws a content size in bytes: lognormal with median
// ≈4 KB clamped to [512 B, 64 KB], matching feed-sized documents.
func SampleContentSize(rng *rand.Rand) int {
	const median = 4096.0
	const sigma = 0.7
	size := int(median * math.Exp(sigma*rng.NormFloat64()))
	if size < 512 {
		size = 512
	}
	if size > 64*1024 {
		size = 64 * 1024
	}
	return size
}

// MeanSize returns the average content size across channels, used to
// normalize sᵢ so load units agree with the paper's polls-based reporting
// (DESIGN.md §2.5).
func (w *Workload) MeanSize() float64 {
	if len(w.Channels) == 0 {
		return 0
	}
	total := 0.0
	for _, c := range w.Channels {
		total += float64(c.SizeBytes)
	}
	return total / float64(len(w.Channels))
}
