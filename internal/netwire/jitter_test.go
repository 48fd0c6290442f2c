package netwire

import (
	"testing"
	"time"
)

// TestReconnectBackoffJitterDesynchronizes pins the anti-stampede
// property: two transports with identical configuration must NOT retry a
// dead peer on identical schedules. Each draws its reconnect waits from
// a per-transport jittered range, so a restarted peer sees the herd
// arrive spread out rather than in synchronized waves.
func TestReconnectBackoffJitterDesynchronizes(t *testing.T) {
	schedule := func(tr *Transport) []time.Duration {
		var waits []time.Duration
		backoff := tr.backoffBase
		for attempt := 1; attempt <= 8; attempt++ {
			waits = append(waits, tr.jitterDelay(tr.nextBackoff(attempt, backoff)))
			backoff *= 2
		}
		return waits
	}

	a := &Transport{backoffBase: 50 * time.Millisecond, backoffMax: 2 * time.Second}
	b := &Transport{backoffBase: 50 * time.Millisecond, backoffMax: 2 * time.Second}
	sa, sb := schedule(a), schedule(b)

	same := true
	for i := range sa {
		if sa[i] != sb[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("identically configured transports produced identical retry schedules: %v", sa)
	}

	// Every jittered wait stays within [cap/2, cap], so DialBudget (which
	// sums the caps) remains a true worst-case bound.
	backoff := a.backoffBase
	for i, w := range sa {
		capAt := a.nextBackoff(i+1, backoff)
		if w < capAt/2 || w > capAt {
			t.Fatalf("attempt %d wait %v outside [%v, %v]", i+1, w, capAt/2, capAt)
		}
		backoff *= 2
	}
}
