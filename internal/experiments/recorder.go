package experiments

import (
	"time"

	"corona/internal/stats"
	"corona/internal/webserver"
	"corona/internal/workload"
)

// ChannelDetection accumulates per-channel detection statistics for the
// per-channel figures (5, 6, 7, 8).
type ChannelDetection struct {
	// Sum and Count aggregate detection latencies of this channel's
	// updates.
	Sum   time.Duration
	Count int
}

// Mean returns the channel's mean detection latency, or 0 when no update
// was measured.
func (c ChannelDetection) Mean() time.Duration {
	if c.Count == 0 {
		return 0
	}
	return c.Sum / time.Duration(c.Count)
}

// Recorder implements core.DetectionSink and takes the legacy baseline's
// detections (LegacyDetection): it converts detection events into the
// measurements the figures need. Detection latencies for Corona are deduplicated per (channel, version), keeping
// the earliest report — cooperative detection counts once for the whole
// cloud, exactly as the paper measures it.
type Recorder struct {
	work     *workload.Workload
	procs    []webserver.UpdateProcess
	urlIndex map[string]int
	start    time.Time
	warmUp   time.Duration

	// lastVersion[i] is the highest version of channel i already
	// recorded (Corona side).
	lastVersion []uint64

	// Series is the bucketed subscription-weighted detection latency
	// (seconds) over time — Figures 4 and 9.
	Series *stats.TimeSeries
	// LegacySeries is the same for the legacy baseline when sharing a
	// recorder.
	LegacySeries *stats.TimeSeries

	// PerChannel aggregates post-warm-up latencies per channel (Corona).
	PerChannel []ChannelDetection
	// LegacyPerChannel is the baseline analogue.
	LegacyPerChannel []ChannelDetection

	// Overall and LegacyOverall are post-warm-up subscription-weighted
	// means in seconds (Table 2).
	Overall       stats.WeightedMean
	LegacyOverall stats.WeightedMean
}

// NewRecorder builds a recorder for a workload hosted on origin.
func NewRecorder(work *workload.Workload, origin *webserver.Origin, start time.Time, warmUp, bucket time.Duration) *Recorder {
	r := &Recorder{
		work:             work,
		procs:            make([]webserver.UpdateProcess, len(work.Channels)),
		urlIndex:         make(map[string]int, len(work.Channels)),
		start:            start,
		warmUp:           warmUp,
		lastVersion:      make([]uint64, len(work.Channels)),
		Series:           stats.NewTimeSeries(start, bucket),
		LegacySeries:     stats.NewTimeSeries(start, bucket),
		PerChannel:       make([]ChannelDetection, len(work.Channels)),
		LegacyPerChannel: make([]ChannelDetection, len(work.Channels)),
	}
	for i, ch := range work.Channels {
		r.urlIndex[ch.URL] = i
		if p, ok := origin.Process(ch.URL); ok {
			r.procs[i] = p
		}
	}
	return r
}

// UpdateDetected implements core.DetectionSink. The first report of a
// version wins (simulation events arrive in time order); versions skipped
// between polls are credited at the same detection instant, matching the
// legacy baseline's accounting.
func (r *Recorder) UpdateDetected(url string, version uint64, at time.Time) {
	idx, ok := r.urlIndex[url]
	if !ok || r.procs[idx] == nil {
		return
	}
	last := r.lastVersion[idx]
	if version <= last {
		return
	}
	r.lastVersion[idx] = version
	q := float64(r.work.Channels[idx].Subscribers)
	for v := last + 1; v <= version; v++ {
		ut := r.procs[idx].UpdateTime(v)
		if ut.IsZero() || ut.Before(r.start) {
			continue
		}
		latency := at.Sub(ut)
		if latency < 0 {
			continue
		}
		r.Series.AddWeighted(at, latency.Seconds(), q)
		if at.Sub(r.start) >= r.warmUp {
			r.PerChannel[idx].Sum += latency
			r.PerChannel[idx].Count++
			r.Overall.Add(latency.Seconds(), q)
		}
	}
}

// WeightedChannelMean computes the paper's headline metric (§3.1, Table
// 2): each channel's mean detection latency, averaged across channels
// weighted by subscriber count. Channels with no measured update are
// excluded. The distinction from a per-update mean matters: a per-update
// mean over-rewards schemes that favor hot channels (which generate most
// update events), whereas the paper weighs every subscription equally
// regardless of its channel's update rate.
func (r *Recorder) WeightedChannelMean() float64 {
	return weightedChannelMean(r.PerChannel, r.work)
}

// LegacyWeightedChannelMean is the baseline analogue.
func (r *Recorder) LegacyWeightedChannelMean() float64 {
	return weightedChannelMean(r.LegacyPerChannel, r.work)
}

func weightedChannelMean(per []ChannelDetection, work *workload.Workload) float64 {
	var m stats.WeightedMean
	for i, d := range per {
		if d.Count == 0 {
			continue
		}
		m.Add(d.Mean().Seconds(), float64(work.Channels[i].Subscribers))
	}
	return m.Mean()
}

// LegacyDetection records one legacy client's detection of an update:
// every client's detection of every update counts with weight one (each
// client is one subscription).
func (r *Recorder) LegacyDetection(channelIndex int, latency time.Duration, at time.Time) {
	r.LegacySeries.AddWeighted(at, latency.Seconds(), 1)
	if at.Sub(r.start) >= r.warmUp {
		r.LegacyPerChannel[channelIndex].Sum += latency
		r.LegacyPerChannel[channelIndex].Count++
		r.LegacyOverall.Add(latency.Seconds(), 1)
	}
}

// LoadSampler snapshots origin accounting each bucket, producing the
// network-load time series of Figures 3 and 10.
type LoadSampler struct {
	origin *webserver.Origin
	start  time.Time
	bucket time.Duration

	// Polls[i] and Bytes[i] are the deltas accumulated in bucket i.
	Polls []float64
	Bytes []float64

	lastPolls uint64
	lastBytes uint64
}

// NewLoadSampler creates a sampler; arm it with Schedule.
func NewLoadSampler(origin *webserver.Origin, start time.Time, bucket time.Duration) *LoadSampler {
	return &LoadSampler{origin: origin, start: start, bucket: bucket}
}

// Sample records the delta since the previous call into the bucket for t.
func (ls *LoadSampler) Sample(t time.Time) {
	load := ls.origin.TotalLoad()
	dPolls := float64(load.Polls - ls.lastPolls)
	dBytes := float64(load.BytesServed - ls.lastBytes)
	ls.lastPolls, ls.lastBytes = load.Polls, load.BytesServed
	idx := int(t.Sub(ls.start) / ls.bucket)
	if idx < 0 {
		return
	}
	for idx >= len(ls.Polls) {
		ls.Polls = append(ls.Polls, 0)
		ls.Bytes = append(ls.Bytes, 0)
	}
	// Attribute the delta to the bucket that just ended.
	if idx > 0 {
		ls.Polls[idx-1] += dPolls
		ls.Bytes[idx-1] += dBytes
	} else {
		ls.Polls[0] += dPolls
		ls.Bytes[0] += dBytes
	}
}

// KbpsPerChannel converts bucketed bytes into the paper's Figure 3 unit:
// kilobits per second of server bandwidth per channel.
func (ls *LoadSampler) KbpsPerChannel(channels int) []float64 {
	out := make([]float64, len(ls.Bytes))
	secs := ls.bucket.Seconds()
	for i, b := range ls.Bytes {
		out[i] = b * 8 / 1000 / secs / float64(channels)
	}
	return out
}

// PollsPerMinute converts bucketed polls into Figure 10's unit.
func (ls *LoadSampler) PollsPerMinute() []float64 {
	out := make([]float64, len(ls.Polls))
	mins := ls.bucket.Minutes()
	for i, p := range ls.Polls {
		out[i] = p / mins
	}
	return out
}

// PollsPerIntervalPerChannel converts post-warm-up polls into Table 2's
// unit: polls per polling interval per channel.
func (ls *LoadSampler) PollsPerIntervalPerChannel(channels int, pollInterval, warmUp time.Duration) float64 {
	var total float64
	var buckets int
	skip := int(warmUp / ls.bucket)
	for i := skip; i < len(ls.Polls); i++ {
		total += ls.Polls[i]
		buckets++
	}
	if buckets == 0 || channels == 0 {
		return 0
	}
	perBucket := total / float64(buckets)
	intervalsPerBucket := float64(ls.bucket) / float64(pollInterval)
	return perBucket / intervalsPerBucket / float64(channels)
}
