package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"corona/internal/core"
	"corona/internal/stats"
)

// Series is one plotted line: a name and bucketed values over time.
type Series struct {
	Name   string
	Bucket time.Duration
	Values []float64
}

// Render prints the series as "t value" rows.
func (s Series) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", s.Name)
	for i, v := range s.Values {
		if math.IsNaN(v) {
			continue
		}
		fmt.Fprintf(&sb, "%-8s %.3f\n", stats.FormatDuration(time.Duration(i)*s.Bucket), v)
	}
	return sb.String()
}

// schemeRun executes one Corona run under a scheme, with the legacy
// baseline alongside when wantLegacy is set.
func schemeRun(scale Scale, scheme core.Scheme, fastTarget time.Duration, wantLegacy bool) *Harness {
	h := NewHarness(scale, Options{Scheme: scheme, FastTarget: fastTarget, LegacyOn: wantLegacy})
	h.Run()
	return h
}

// legacyRun executes a pure legacy-RSS run.
func legacyRun(scale Scale) *Harness {
	h := NewHarness(scale, Options{CoronaOff: true})
	h.Run()
	return h
}

// Figure34Result carries both Figure 3 (network load per channel, kbps)
// and Figure 4 (average update detection time) — the paper derives them
// from the same three runs: Legacy, Corona-Lite, Corona-Fast.
type Figure34Result struct {
	Scale Scale
	// Load maps series name to kbps-per-channel buckets (Figure 3).
	Load []Series
	// Detect maps series name to mean detection minutes (Figure 4).
	Detect []Series
}

// RunFigure34 reproduces Figures 3 and 4.
func RunFigure34(scale Scale) *Figure34Result {
	res := &Figure34Result{Scale: scale}

	leg := legacyRun(scale)
	lite := schemeRun(scale, core.SchemeLite, 0, false)
	fast := schemeRun(scale, core.SchemeFast, 30*time.Second, false)

	res.Load = []Series{
		{Name: "Legacy RSS", Bucket: scale.Bucket, Values: leg.Loads.KbpsPerChannel(scale.Channels)},
		{Name: "Corona Lite", Bucket: scale.Bucket, Values: lite.Loads.KbpsPerChannel(scale.Channels)},
		{Name: "Corona Fast", Bucket: scale.Bucket, Values: fast.Loads.KbpsPerChannel(scale.Channels)},
	}
	toMinutes := func(points []stats.Point) []float64 {
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = p.Value / 60
		}
		return out
	}
	res.Detect = []Series{
		{Name: "Legacy RSS", Bucket: scale.Bucket, Values: toMinutes(leg.Recorder.LegacySeries.Means())},
		{Name: "Corona Lite", Bucket: scale.Bucket, Values: toMinutes(lite.Recorder.Series.Means())},
		{Name: "Corona Fast", Bucket: scale.Bucket, Values: toMinutes(fast.Recorder.Series.Means())},
	}
	return res
}

// Render prints both figures' series.
func (r *Figure34Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: network load per channel (kbps) vs time\n")
	for _, s := range r.Load {
		sb.WriteString(s.Render())
	}
	sb.WriteString("\nFigure 4: average update detection time (min) vs time\n")
	for _, s := range r.Detect {
		sb.WriteString(s.Render())
	}
	return sb.String()
}

// RankPoint is one channel in a rank-ordered scatter.
type RankPoint struct {
	Rank  int
	Value float64
}

// Figure56Result carries Figure 5 (pollers per channel by popularity rank)
// and Figure 6 (detection time per channel by popularity rank) from one
// Corona-Lite run plus the legacy comparison.
type Figure56Result struct {
	Scale Scale
	// LegacyPollers is qᵢ (every subscriber polls independently).
	LegacyPollers []RankPoint
	// CoronaPollers counts wedge members polling each channel.
	CoronaPollers []RankPoint
	// LegacyDetect and CoronaDetect are per-channel mean detection
	// seconds by popularity rank.
	LegacyDetect []RankPoint
	CoronaDetect []RankPoint
}

// RunFigure56 reproduces Figures 5 and 6.
func RunFigure56(scale Scale) *Figure56Result {
	res := &Figure56Result{Scale: scale}
	leg := legacyRun(scale)
	lite := schemeRun(scale, core.SchemeLite, 0, false)

	pollers := lite.PollersPerChannel()
	for i, ch := range lite.Work.Channels {
		res.LegacyPollers = append(res.LegacyPollers, RankPoint{Rank: i + 1, Value: float64(ch.Subscribers)})
		res.CoronaPollers = append(res.CoronaPollers, RankPoint{Rank: i + 1, Value: float64(pollers[i])})
		if d := lite.Recorder.PerChannel[i]; d.Count > 0 {
			res.CoronaDetect = append(res.CoronaDetect, RankPoint{Rank: i + 1, Value: d.Mean().Seconds()})
		}
		if d := leg.Recorder.LegacyPerChannel[i]; d.Count > 0 {
			res.LegacyDetect = append(res.LegacyDetect, RankPoint{Rank: i + 1, Value: d.Mean().Seconds()})
		}
	}
	return res
}

// Render prints a decimated rank scatter (full data is available on the
// struct).
func (r *Figure56Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 5: number of polling nodes vs channel rank by popularity\n")
	sb.WriteString(renderRanks("Legacy RSS (=subscribers)", r.LegacyPollers))
	sb.WriteString(renderRanks("Corona Lite", r.CoronaPollers))
	sb.WriteString("\nFigure 6: update detection time (s) vs channel rank by popularity\n")
	sb.WriteString(renderRanks("Legacy RSS", r.LegacyDetect))
	sb.WriteString(renderRanks("Corona Lite", r.CoronaDetect))
	return sb.String()
}

// renderRanks prints up to ~20 logarithmically spaced rank points.
func renderRanks(name string, pts []RankPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n", name)
	if len(pts) == 0 {
		return sb.String()
	}
	step := 1.0
	if len(pts) > 20 {
		step = math.Pow(float64(len(pts)), 1.0/20)
	}
	for f := 1.0; int(f) <= len(pts); f = math.Max(f*step, f+1) {
		p := pts[int(f)-1]
		fmt.Fprintf(&sb, "rank %-7d %.2f\n", p.Rank, p.Value)
	}
	return sb.String()
}

// Figure78Result carries the fairness figures: per-channel detection time
// ranked by update interval, for Lite vs Fair (Figure 7) and the Sqrt/Log
// variants (Figure 8).
type Figure78Result struct {
	Scale Scale
	// ByScheme maps scheme name to per-channel detection seconds, with
	// channels ordered by increasing update interval (ties by
	// popularity), the paper's x-axis.
	ByScheme map[string][]RankPoint
	// Intervals records the update interval (seconds) per rank position.
	Intervals []float64
}

// RunFigure78 reproduces Figures 7 and 8.
func RunFigure78(scale Scale) *Figure78Result {
	res := &Figure78Result{Scale: scale, ByScheme: make(map[string][]RankPoint)}

	runs := map[string]*Harness{
		core.SchemeLite.String():     schemeRun(scale, core.SchemeLite, 0, false),
		core.SchemeFair.String():     schemeRun(scale, core.SchemeFair, 0, false),
		core.SchemeFairSqrt.String(): schemeRun(scale, core.SchemeFairSqrt, 0, false),
		core.SchemeFairLog.String():  schemeRun(scale, core.SchemeFairLog, 0, false),
	}

	// Rank channels by update interval, ties by popularity (§5.1).
	any := runs[core.SchemeLite.String()]
	order := make([]int, len(any.Work.Channels))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := any.Work.Channels[order[a]], any.Work.Channels[order[b]]
		if ca.UpdateInterval != cb.UpdateInterval {
			return ca.UpdateInterval < cb.UpdateInterval
		}
		return ca.Subscribers > cb.Subscribers
	})
	for rank, idx := range order {
		res.Intervals = append(res.Intervals, any.Work.Channels[idx].UpdateInterval.Seconds())
		for name, h := range runs {
			if d := h.Recorder.PerChannel[idx]; d.Count > 0 {
				res.ByScheme[name] = append(res.ByScheme[name], RankPoint{Rank: rank + 1, Value: d.Mean().Seconds()})
			}
		}
	}
	return res
}

// Render prints the four schemes' rank scatters.
func (r *Figure78Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figures 7/8: update detection time (s) vs channel rank by update interval\n")
	for _, name := range []string{"Corona-Lite", "Corona-Fair", "Corona-Fair-Sqrt", "Corona-Fair-Log"} {
		sb.WriteString(renderRanks(name, r.ByScheme[name]))
	}
	return sb.String()
}

// Table2Row is one scheme's summary line.
type Table2Row struct {
	Scheme string
	// DetectionSec is the subscription-weighted mean of measured
	// detection latencies, over channels that updated during the
	// measurement window.
	DetectionSec float64
	// ModelDetectionSec is the subscription-weighted mean of the
	// assigned-level detection estimate τ/2·bˡ/N over ALL channels,
	// including ones that never updated in the window. The paper's
	// Figure 7/8 values (up to 10⁴ s, above the 1.8·10³ s ceiling that
	// 30-minute polling can produce in measurement) indicate its
	// per-channel detection numbers are of this kind, so this column is
	// the one to compare against the paper's Table 2 (see
	// EXPERIMENTS.md).
	ModelDetectionSec float64
	// LoadPollsPerIntervalPerChannel is the paper's "polls per 30 min
	// per channel".
	LoadPollsPerIntervalPerChannel float64
}

// Table2Result is the full performance summary (Table 2).
type Table2Result struct {
	Scale Scale
	Rows  []Table2Row
}

// RunTable2 reproduces Table 2: all five Corona schemes plus legacy RSS.
func RunTable2(scale Scale) *Table2Result {
	res := &Table2Result{Scale: scale}

	leg := legacyRun(scale)
	res.Rows = append(res.Rows, Table2Row{
		Scheme:                         "Legacy-RSS",
		DetectionSec:                   leg.Recorder.LegacyWeightedChannelMean(),
		ModelDetectionSec:              scale.PollInterval.Seconds() / 2, // every client alone: τ/2
		LoadPollsPerIntervalPerChannel: leg.Loads.PollsPerIntervalPerChannel(scale.Channels, scale.PollInterval, scale.WarmUp),
	})
	type schemeSpec struct {
		scheme core.Scheme
		target time.Duration
	}
	for _, s := range []schemeSpec{
		{core.SchemeLite, 0},
		{core.SchemeFair, 0},
		{core.SchemeFairSqrt, 0},
		{core.SchemeFairLog, 0},
		{core.SchemeFast, 30 * time.Second},
	} {
		h := schemeRun(scale, s.scheme, s.target, false)
		res.Rows = append(res.Rows, Table2Row{
			Scheme:                         s.scheme.String(),
			DetectionSec:                   h.Recorder.WeightedChannelMean(),
			ModelDetectionSec:              h.ModelDetectionMean(),
			LoadPollsPerIntervalPerChannel: h.Loads.PollsPerIntervalPerChannel(scale.Channels, scale.PollInterval, scale.WarmUp),
		})
	}
	return res
}

// Render prints the table in the paper's layout, with both detection
// methodologies side by side.
func (r *Table2Result) Render() string {
	tbl := stats.NewTable("Scheme", "Detection measured (s)", "Detection model (s)", "Load (polls/interval/channel)")
	for _, row := range r.Rows {
		tbl.AddRow(row.Scheme, row.DetectionSec, row.ModelDetectionSec, row.LoadPollsPerIntervalPerChannel)
	}
	return "Table 2: performance summary\n" + tbl.Render()
}

// Figure910Result carries the deployment experiment: detection time
// (Figure 9) and total polls per minute (Figure 10), Corona vs legacy.
type Figure910Result struct {
	Scale Scale
	// Detect is mean detection seconds over time per series.
	Detect []Series
	// Polls is total polls per minute over time per series.
	Polls []Series
}

// RunFigure910 reproduces Figures 9 and 10: the deployment setup with
// wide-area latencies, ramped subscriptions, equal poll and maintenance
// intervals, and Corona-Lite (§5.2).
func RunFigure910(scale Scale) *Figure910Result {
	res := &Figure910Result{Scale: scale}

	leg := legacyRun(scale)
	cor := NewHarness(scale, Options{
		Scheme:            core.SchemeLite,
		WANLatency:        true,
		RampSubscriptions: true,
	})
	cor.Run()

	toSeconds := func(points []stats.Point) []float64 {
		out := make([]float64, len(points))
		for i, p := range points {
			out[i] = p.Value
		}
		return out
	}
	res.Detect = []Series{
		{Name: "Legacy RSS", Bucket: scale.Bucket, Values: toSeconds(leg.Recorder.LegacySeries.Means())},
		{Name: "Corona", Bucket: scale.Bucket, Values: toSeconds(cor.Recorder.Series.Means())},
	}
	res.Polls = []Series{
		{Name: "Legacy RSS", Bucket: scale.Bucket, Values: leg.Loads.PollsPerMinute()},
		{Name: "Corona", Bucket: scale.Bucket, Values: cor.Loads.PollsPerMinute()},
	}
	return res
}

// Render prints both deployment figures.
func (r *Figure910Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 9: average update detection time (s) vs time [deployment]\n")
	for _, s := range r.Detect {
		sb.WriteString(s.Render())
	}
	sb.WriteString("\nFigure 10: total network polls per min vs time [deployment]\n")
	for _, s := range r.Polls {
		sb.WriteString(s.Render())
	}
	return sb.String()
}
