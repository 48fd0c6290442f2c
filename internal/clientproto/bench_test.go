package clientproto

import (
	"fmt"
	"testing"
	"time"

	"corona/internal/clock"
	"corona/internal/im"
)

// benchDiff approximates one RSS item diff (the common notification
// payload size in the deployment experiments).
var benchDiff = func() string {
	s := "CORONA-DIFF 3 7\n"
	for i := 0; i < 6; i++ {
		s += fmt.Sprintf("+<item><title>headline %d</title><link>http://example.com/%d</link></item>\n", i, i)
	}
	return s
}()

// BenchmarkClientNotifyEncode measures the raw frame encode of one
// structured notification — the per-subscriber marginal cost at the
// client edge.
func BenchmarkClientNotifyEncode(b *testing.B) {
	n := &Notify{Channel: "http://feeds.example.com/headlines.xml", Version: 42, Diff: benchDiff, At: time.Unix(1700000000, 0)}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], n)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkClientGatewayFanout measures a channel update fanning out
// through the gateway's structured path to attached protocol clients as
// one single-client NotifyBatch call per client, each deliverer encoding
// its own Notify frame — the full gateway→clientproto encode pipeline per
// notification, without socket IO. (BenchmarkFanoutNotifyBatch measures
// the shared-encode path with every client in one batch.)
func BenchmarkClientGatewayFanout(b *testing.B) {
	for _, clients := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			g := im.NewGateway(clock.Real{})
			handles := make([]string, clients)
			var sink int
			for i := range handles {
				handles[i] = fmt.Sprintf("user%d", i)
				var buf []byte
				g.Attach(handles[i], func(n im.Notification) {
					buf = AppendFrame(buf[:0], &Notify{Channel: n.Channel, Version: n.Version, Diff: n.Diff, At: n.At})
					sink += len(buf)
				})
			}
			const url = "http://feeds.example.com/headlines.xml"
			one := make([]string, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := uint64(i + 1)
				for _, h := range handles {
					one[0] = h
					g.NotifyBatch(one, url, v, benchDiff, time.Time{})
				}
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("no frames encoded")
			}
			// Report per-notification cost, not per-update.
			perNotify := float64(b.Elapsed().Nanoseconds()) / float64(b.N*clients)
			b.ReportMetric(perNotify, "ns/notify")
		})
	}
}
