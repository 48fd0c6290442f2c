package webgateway

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"corona/internal/clientproto"
)

// BenchmarkWebFanoutDeliver measures the hot path a channel update takes
// through the web edge: one shared JSON encode per batch, then each
// session outbox's real deliverer (watermark check and queue append).
// Every outbox runs its writer loop with a discarding write, so the
// queues stay below the slow-client bound.
func BenchmarkWebFanoutDeliver(b *testing.B) {
	diff := strings.Repeat("x", 512)
	discard := func(clientproto.Queued[outEvent]) error { return nil }
	flush := func() error { return nil }
	for _, clients := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			tm := liveTimings
			tm.queueLen = 1 << 16
			s := newServer(Config{Backend: newFakeBackend()}, tm, nil)
			sessions := make([]*clientproto.Outbox[outEvent], clients)
			var writers sync.WaitGroup
			for i := range sessions {
				out, _ := s.edge.Open(nil)
				writers.Add(1)
				go func() {
					defer writers.Done()
					out.Drain(discard, flush)
				}()
				sessions[i] = out
			}
			at := time.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shared := &clientproto.Shared{}
				n := clientproto.Notification{Channel: "u", Version: uint64(i + 1), Diff: diff, At: at, Shared: shared}
				for _, out := range sessions {
					out.Deliver(n)
				}
			}
			b.StopTimer()
			for _, out := range sessions {
				out.Close(clientproto.CloseGone)
			}
			writers.Wait()
		})
	}
}

// BenchmarkWebWSFrameEncode measures the WS framing of one queued
// notify event into the writer's buffer, socket excluded.
func BenchmarkWebWSFrameEncode(b *testing.B) {
	q := clientproto.Queued[outEvent]{Msg: outEvent{name: "notify", opcode: opText, json: []byte(strings.Repeat("x", 512))}}
	bw := bufio.NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeWS(bw, q)
	}
	bw.Flush()
}
