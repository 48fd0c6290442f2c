package core

import (
	"testing"
	"time"

	"corona/internal/ids"
	"corona/internal/pastry"
)

var testEnv = TradeoffEnv{
	Nodes:        1024,
	PollInterval: 30 * time.Minute,
	MaxLevel:     3,
}

func TestEnvPollers(t *testing.T) {
	cases := []struct {
		level int
		want  float64
	}{{0, 1024}, {1, 64}, {2, 4}, {3, 1}}
	for _, c := range cases {
		if got := testEnv.Pollers(c.level); got != c.want {
			t.Errorf("Pollers(%d) = %v, want %v", c.level, got, c.want)
		}
	}
}

func TestEnvDetectionTime(t *testing.T) {
	// τ/2 at owner-only (level where a single node polls), τ/2/64 at
	// level 1 (paper §3.1: τ/2 · bˡ/N).
	if got := testEnv.DetectionTime(3); got != 15*time.Minute {
		t.Errorf("DetectionTime(3) = %v, want 15m", got)
	}
	if got := testEnv.DetectionTime(1); got != 15*time.Minute/64 {
		t.Errorf("DetectionTime(1) = %v, want %v", got, 15*time.Minute/64)
	}
}

func TestBuildEntryLiteShape(t *testing.T) {
	ch := ChannelTradeoff{Q: 100, SNorm: 1, U: time.Hour}
	e := BuildEntry(PolicyConfig{Scheme: SchemeLite}, testEnv, ch, "x")
	if e.MaxLevel != 3 || len(e.F) != 4 || len(e.G) != 4 {
		t.Fatalf("entry shape wrong: %+v", e)
	}
	// F (detection) increases with level; G (load) decreases.
	for l := 1; l <= 3; l++ {
		if e.F[l] <= e.F[l-1] {
			t.Fatalf("Lite F not increasing at level %d: %v", l, e.F)
		}
		if e.G[l] >= e.G[l-1] {
			t.Fatalf("Lite G not decreasing at level %d: %v", l, e.G)
		}
	}
	// F is linear in q, G in s.
	e2 := BuildEntry(PolicyConfig{Scheme: SchemeLite}, testEnv, ChannelTradeoff{Q: 200, SNorm: 2, U: time.Hour}, "y")
	for l := 0; l <= 3; l++ {
		if e2.F[l] != 2*e.F[l] || e2.G[l] != 2*e.G[l] {
			t.Fatalf("scaling wrong at level %d", l)
		}
	}
}

func TestBuildEntryFastSwapsRoles(t *testing.T) {
	ch := ChannelTradeoff{Q: 100, SNorm: 1, U: time.Hour}
	lite := BuildEntry(PolicyConfig{Scheme: SchemeLite}, testEnv, ch, "x")
	fast := BuildEntry(PolicyConfig{Scheme: SchemeFast, FastTarget: 30 * time.Second}, testEnv, ch, "x")
	for l := 0; l <= 3; l++ {
		if fast.F[l] != lite.G[l] || fast.G[l] != lite.F[l] {
			t.Fatalf("Fast must swap F and G at level %d", l)
		}
	}
}

func TestFairWeightOrdersByUpdateRate(t *testing.T) {
	// A rapidly updating channel must get a strictly larger weight than a
	// slow one under all Fair variants.
	for _, s := range []Scheme{SchemeFair, SchemeFairSqrt, SchemeFairLog} {
		hot := BuildEntry(PolicyConfig{Scheme: s}, testEnv, ChannelTradeoff{Q: 10, SNorm: 1, U: 10 * time.Minute}, "hot")
		cold := BuildEntry(PolicyConfig{Scheme: s}, testEnv, ChannelTradeoff{Q: 10, SNorm: 1, U: 7 * 24 * time.Hour}, "cold")
		if hot.F[3] <= cold.F[3] {
			t.Errorf("%v: hot channel weight not larger (hot %v, cold %v)", s, hot.F[3], cold.F[3])
		}
	}
}

func TestFairSublinearVariantsDampBias(t *testing.T) {
	// The ratio between hot and cold weights must shrink from Fair to
	// FairSqrt to FairLog (§3.1: sublinear metrics dampen the punishment
	// of slow channels).
	ratio := func(s Scheme) float64 {
		hot := BuildEntry(PolicyConfig{Scheme: s}, testEnv, ChannelTradeoff{Q: 1, SNorm: 1, U: 10 * time.Minute}, nil)
		cold := BuildEntry(PolicyConfig{Scheme: s}, testEnv, ChannelTradeoff{Q: 1, SNorm: 1, U: 7 * 24 * time.Hour}, nil)
		return hot.F[3] / cold.F[3]
	}
	rF, rS, rL := ratio(SchemeFair), ratio(SchemeFairSqrt), ratio(SchemeFairLog)
	if !(rF > rS && rS > rL && rL > 1) {
		t.Fatalf("bias ratios not ordered: fair=%v sqrt=%v log=%v", rF, rS, rL)
	}
}

func TestBuildEntryOrphanPinned(t *testing.T) {
	ch := ChannelTradeoff{Q: 5, SNorm: 1, U: time.Hour, MinLevel: 3, MaxLevel: 3}
	e := BuildEntry(PolicyConfig{Scheme: SchemeLite}, testEnv, ch, "orphan")
	if e.MinLevel != 3 || e.MaxLevel != 3 {
		t.Fatalf("orphan not pinned: [%d,%d]", e.MinLevel, e.MaxLevel)
	}
}

func TestBuildEntryDefensiveInputs(t *testing.T) {
	// Zero/negative inputs must produce valid, finite entries.
	e := BuildEntry(PolicyConfig{Scheme: SchemeFair}, testEnv, ChannelTradeoff{Q: -1, SNorm: 0, U: 0}, nil)
	for l := 0; l <= e.MaxLevel; l++ {
		if e.F[l] < 0 || e.G[l] <= 0 {
			t.Fatalf("invalid entry values at level %d: F=%v G=%v", l, e.F[l], e.G[l])
		}
	}
}

func TestBudget(t *testing.T) {
	if got := Budget(PolicyConfig{Scheme: SchemeLite}, 1000, 50); got != 950 {
		t.Errorf("Lite budget = %v, want ΣQ - slack = 950", got)
	}
	if got := Budget(PolicyConfig{Scheme: SchemeLite}, 10, 50); got != 0 {
		t.Errorf("Lite budget clamps at zero, got %v", got)
	}
	if got := Budget(PolicyConfig{Scheme: SchemeFast, FastTarget: 30 * time.Second}, 1000, 0); got != 30000 {
		t.Errorf("Fast budget = %v, want target x ΣQ = 30000", got)
	}
	// Unset Fast target falls back to the paper's 30 s example.
	if got := Budget(PolicyConfig{Scheme: SchemeFast}, 100, 0); got != 3000 {
		t.Errorf("Fast default budget = %v, want 3000", got)
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeLite:     "Corona-Lite",
		SchemeFast:     "Corona-Fast",
		SchemeFair:     "Corona-Fair",
		SchemeFairSqrt: "Corona-Fair-Sqrt",
		SchemeFairLog:  "Corona-Fair-Log",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), name)
		}
	}
}

func TestIntervalEstimator(t *testing.T) {
	var e intervalEstimator
	if got := e.interval(); got != defaultInterval {
		t.Fatalf("prior = %v, want one week", got)
	}
	base := time.Date(2006, 5, 1, 0, 0, 0, 0, time.UTC)
	e.observe(base)
	if got := e.interval(); got != defaultInterval {
		t.Fatalf("single observation should not move the prior, got %v", got)
	}
	for i := 1; i <= 20; i++ {
		e.observe(base.Add(time.Duration(i) * 10 * time.Minute))
	}
	got := e.interval()
	if got < 9*time.Minute || got > 11*time.Minute {
		t.Fatalf("estimate after steady 10m gaps = %v", got)
	}
	// Out-of-order observation is ignored.
	e.observe(base)
	if e.interval() != got {
		t.Fatal("out-of-order observation changed the estimate")
	}
}

// idAt builds an ID at the given fraction of the ring.
func idAt(frac float64) ids.ID {
	var id ids.ID
	v := uint64(frac * float64(^uint64(0)))
	for i := 0; i < 8; i++ {
		id[i] = byte(v >> (56 - 8*i))
	}
	return id
}

func TestEstimateNodeCountAccuracy(t *testing.T) {
	// Build a synthetic leaf set as if the ring had n uniformly spaced
	// nodes; the estimator must land within a small factor of n.
	for _, n := range []int{64, 1024, 16384} {
		self := idAt(0.5)
		var leaves []pastry.Addr
		k := 8
		for i := 1; i <= k/2; i++ {
			leaves = append(leaves,
				pastry.Addr{ID: idAt(0.5 + float64(i)/float64(n))},
				pastry.Addr{ID: idAt(0.5 - float64(i)/float64(n))})
		}
		got := estimateNodeCount(self, leaves)
		if got < n/3 || got > n*3 {
			t.Errorf("estimate for n=%d: got %d", n, got)
		}
	}
}

func TestEstimateNodeCountDegenerate(t *testing.T) {
	if got := estimateNodeCount(idAt(0.3), nil); got != 1 {
		t.Errorf("empty leaf set estimate = %d, want 1", got)
	}
	// A leaf at the same ID (degenerate) must not panic or return zero.
	got := estimateNodeCount(idAt(0.3), []pastry.Addr{{ID: idAt(0.3)}})
	if got < 1 {
		t.Errorf("degenerate estimate = %d", got)
	}
}
