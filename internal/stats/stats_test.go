package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2006, 5, 1, 0, 0, 0, 0, time.UTC)

func TestTimeSeriesMeans(t *testing.T) {
	ts := NewTimeSeries(t0, time.Minute)
	ts.Add(t0.Add(10*time.Second), 2)
	ts.Add(t0.Add(50*time.Second), 4)
	ts.Add(t0.Add(90*time.Second), 10)
	means := ts.Means()
	if len(means) != 2 {
		t.Fatalf("buckets = %d, want 2", len(means))
	}
	if means[0].Value != 3 || means[0].N != 2 {
		t.Fatalf("bucket 0 = %+v", means[0])
	}
	if means[1].Value != 10 {
		t.Fatalf("bucket 1 = %+v", means[1])
	}
}

func TestTimeSeriesDropsPreStart(t *testing.T) {
	ts := NewTimeSeries(t0, time.Minute)
	ts.Add(t0.Add(-time.Second), 1)
	if len(ts.Means()) != 0 {
		t.Fatal("pre-start sample created a bucket")
	}
}

func TestTimeSeriesEmptyBucketsNaN(t *testing.T) {
	ts := NewTimeSeries(t0, time.Minute)
	ts.Add(t0.Add(3*time.Minute), 5)
	means := ts.Means()
	if !math.IsNaN(means[0].Value) {
		t.Fatal("empty bucket mean not NaN")
	}
	if means[3].Value != 5 {
		t.Fatal("sample landed in wrong bucket")
	}
}

func TestNewTimeSeriesPanicsOnBadBucket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bucket width did not panic")
		}
	}()
	NewTimeSeries(t0, 0)
}

func TestWeightedMean(t *testing.T) {
	var m WeightedMean
	if !math.IsNaN(m.Mean()) {
		t.Fatal("empty mean not NaN")
	}
	m.Add(10, 1)
	m.Add(20, 3)
	if got := m.Mean(); got != 17.5 {
		t.Fatalf("Mean = %v, want 17.5", got)
	}
	if m.Weight() != 4 {
		t.Fatalf("Weight = %v", m.Weight())
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Scheme", "Detection (s)", "Load")
	tbl.AddRow("Legacy-RSS", 900.0, 50.0)
	tbl.AddRow("Corona-Lite", 54.0, 49.22)
	out := tbl.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Scheme") || !strings.Contains(lines[3], "Corona-Lite") {
		t.Fatalf("table content wrong:\n%s", out)
	}
	// Columns aligned: header and row share the separator offset.
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("no separator:\n%s", out)
	}
}

func TestTableFormatsFloats(t *testing.T) {
	tbl := NewTable("v")
	tbl.AddRow(math.NaN())
	tbl.AddRow(0.0001)
	tbl.AddRow(12345.6)
	out := tbl.Render()
	if !strings.Contains(out, "-") {
		t.Fatal("NaN not rendered as dash")
	}
	if !strings.Contains(out, "e-") {
		t.Fatal("tiny value not in scientific notation")
	}
	if !strings.Contains(out, "12346") {
		t.Fatal("large value not rounded")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{30 * time.Second, "30s"},
		{90 * time.Second, "90s"},
		{15 * time.Minute, "15.0m"},
		{3 * time.Hour, "3.0h"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
