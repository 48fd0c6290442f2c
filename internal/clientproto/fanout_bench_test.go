package clientproto

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkFanoutNotifyBatch measures the encode-once batch path: one
// session-table NotifyBatch call fanning an update out to every logged-in
// protocol client through the server's real deliverer (Outbox.Deliver),
// with the Notify frame encoded a single time into the batch's shared
// cell and the bytes reused by every outbox — the marginal cost per
// client is one outbox enqueue and no allocation, against
// BenchmarkClientGatewayFanout's per-client encode baseline. Each outbox
// is drained by its writer's own batch step between iterations.
// allocs/op is per batch and stays flat as clients grow.
func BenchmarkFanoutNotifyBatch(b *testing.B) {
	for _, clients := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			g := NewSessionTable(nil)
			edge := NewEdge(DefaultQueueLen, encodeNotify, nil)
			handles := make([]string, clients)
			outs := make([]*Outbox[Frame], clients)
			batches := make([][]Queued[Frame], clients)
			for i := range handles {
				handles[i] = fmt.Sprintf("user%d", i)
				outs[i], _ = edge.Open(nil)
				g.Claim(handles[i], outs[i].Deliver)
			}
			var sink int
			const url = "http://feeds.example.com/headlines.xml"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.NotifyBatch(handles, url, uint64(i+1), benchDiff, time.Time{})
				for j, o := range outs {
					batches[j], _ = o.next(batches[j])
					sink += len(batches[j][0].Msg.(*sharedFrame).buf)
				}
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("no frames delivered")
			}
			perNotify := float64(b.Elapsed().Nanoseconds()) / float64(b.N*clients)
			b.ReportMetric(perNotify, "ns/notify")
		})
	}
}
