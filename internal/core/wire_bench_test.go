package core

// Wire-path benchmarks for the zero-copy payload work: update encode
// throughput, per-hop forwarding cost (verbatim forward vs materialize and
// re-encode) and broadcast fan-out cost per routing contact (encode-once
// shared prefix vs re-encoding the whole message per contact).
// `make bench` records these in BENCH_wire.json.

import (
	"fmt"
	"strings"
	"testing"

	"corona/internal/codec"
	"corona/internal/diffengine"
	"corona/internal/ids"
	"corona/internal/pastry"
)

// representativeDiff builds a real encoded diff the way polling does: a
// 100-item micronews feed gaining `items` fresh items, run through the
// extractor and the difference engine.
func representativeDiff(items int) string {
	feedDoc := func(shift int) string {
		var sb strings.Builder
		sb.WriteString("<rss version=\"2.0\"><channel><title>bench</title>\n")
		for i := 0; i < 100; i++ {
			fmt.Fprintf(&sb, "<item><title>story %d</title><guid>g%d</guid><description>body of story %d with some words about markets and weather</description></item>\n", i+shift, i+shift, i+shift)
		}
		sb.WriteString("</channel></rss>\n")
		return sb.String()
	}
	e := diffengine.RSSProfile()
	old := e.Extract(feedDoc(0))
	new := e.Extract(feedDoc(items))
	return diffengine.Encode(diffengine.Compute(old, new, 1, 2))
}

func benchUpdateMessage(diff string, payload pastry.Payload) pastry.Message {
	return pastry.Message{
		Type:    msgUpdate,
		Key:     ids.HashString("bench-channel"),
		From:    pastry.Addr{ID: ids.HashString("bench-node"), Endpoint: "10.0.0.1:9001"},
		Hops:    2,
		Cover:   2,
		Payload: payload,
	}
}

// BenchmarkUpdateEncode measures encoding an update dissemination message
// with its native binary payload.
func BenchmarkUpdateEncode(b *testing.B) {
	diff := representativeDiff(3)
	b.Run("binary-payload", func(b *testing.B) {
		msg := benchUpdateMessage(diff, &updateMsg{URL: "http://example.com/feed.rss", Version: 17, Diff: diff, Bytes: len(diff)})
		body, err := codec.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportMetric(float64(len(body)), "bytes/msg")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := codec.Encode(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUpdateDecodeForward compares the per-hop cost of preparing a
// received update for re-forwarding: decode plus re-encode. The zero-copy
// path never materializes the payload; the baseline decodes the payload
// into its struct and re-marshals it, as a node holding a typed struct
// would.
func BenchmarkUpdateDecodeForward(b *testing.B) {
	diff := representativeDiff(3)
	cases := []struct {
		name        string
		materialize bool
	}{
		{"zero-copy", false},
		{"materialize-remarshal", true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			msg := benchUpdateMessage(diff, &updateMsg{URL: "u", Version: 17, Diff: diff, Bytes: len(diff)})
			body, err := codec.Encode(msg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := codec.Decode(body)
				if err != nil {
					b.Fatal(err)
				}
				if tc.materialize {
					p, err := pastry.PayloadAs[updateMsg](got)
					if err != nil {
						b.Fatal(err)
					}
					got = pastry.Message{Type: got.Type, Key: got.Key, From: got.From, Hops: got.Hops, Cover: got.Cover, Payload: p}
				}
				if _, err := codec.Encode(got); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFanOutEncode measures encoding one broadcast toward N routing
// contacts, the per-hop hot loop of wedge dissemination (§3.4):
//
//   - reencode-binary: native payload, but still a full encode per contact.
//   - shared-prefix: the landed path — the hop-invariant prefix, envelope
//     plus payload, encodes once and each contact adds a 2-varint trailer.
//
// Diff sizes 256 B and 4 KiB show the shared path's per-contact cost is
// O(trailer): it barely moves with message size while the re-encode paths
// scale with it.
func BenchmarkFanOutEncode(b *testing.B) {
	const contacts = 16
	for _, size := range []int{256, 4096} {
		diff := strings.Repeat("d", size)
		cases := []struct {
			name  string
			share bool
		}{
			{"reencode-binary", false},
			{"shared-prefix", true},
		}
		for _, tc := range cases {
			b.Run(fmt.Sprintf("diff=%dB/%s", size, tc.name), func(b *testing.B) {
				msg := benchUpdateMessage(diff, &updateMsg{URL: "u", Version: 9, Diff: diff, Bytes: size})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out := msg
					out.Hops++
					if tc.share {
						out.ShareEncoding()
					}
					for c := 0; c < contacts; c++ {
						send := out
						send.Cover = c + 2
						if _, err := codec.Encode(send); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/contacts, "ns/contact")
			})
		}
		// The marginal cost of one more contact on the size-only path
		// simnet's byte accounting takes: the prefix is already cached, so
		// each call costs two varint widths — no body is built, and the
		// number is flat across message sizes (pure O(trailer)).
		b.Run(fmt.Sprintf("diff=%dB/shared-prefix-marginal", size), func(b *testing.B) {
			msg := benchUpdateMessage(diff, &updateMsg{URL: "u", Version: 9, Diff: diff, Bytes: size})
			msg.Hops++
			msg.ShareEncoding()
			if codec.Measure(msg) == 0 { // warm the prefix cache
				b.Fatal("measure failed")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send := msg
				send.Cover = i%contacts + 2
				if codec.Measure(send) == 0 {
					b.Fatal("measure failed")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/contact")
		})
	}
}
