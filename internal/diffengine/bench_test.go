package diffengine

import (
	"math/rand"
	"testing"
)

// The benchmarks run on one update of a feed.Generator channel: two
// consecutive snapshots, the second publishing two fresh items.
func benchPair() (oldDoc, newDoc string, old, new []string) {
	docs := generatorDocs(1, 2)
	e := RSSProfile()
	return docs[0], docs[1], e.Extract(docs[0]), e.Extract(docs[1])
}

var benchSink any

func BenchmarkExtract(b *testing.B) {
	_, doc, _, _ := benchPair()
	e := RSSProfile()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for b.Loop() {
		benchSink = e.Extract(doc)
	}
}

// BenchmarkExtractDecorated runs on generator documents with lines every
// rule acts on spliced in (see decorate), so each matcher does its work.
func BenchmarkExtractDecorated(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var docs []string
	size := 0
	for _, doc := range generatorDocs(1, 8) {
		doc = decorate(rng, doc)
		docs = append(docs, doc)
		size += len(doc)
	}
	e := RSSProfile()
	b.SetBytes(int64(size / len(docs)))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		benchSink = e.Extract(docs[i%len(docs)])
		i++
	}
}

// BenchmarkExtractDiff detects the update the way a polling node does:
// one ExtractDiff of the fetched body against the content held, which
// extracts it, diffs it and shares the unchanged lines.
func BenchmarkExtractDiff(b *testing.B) {
	oldDoc, newDoc, _, _ := benchPair()
	e := RSSProfile()
	prev := e.Extract(oldDoc)
	buf := make([]byte, len(newDoc))
	b.SetBytes(int64(len(newDoc)))
	b.ReportAllocs()
	for b.Loop() {
		copy(buf, newDoc)
		benchSink, benchSink = e.ExtractDiff(prev, buf, 1, 2)
	}
}

func BenchmarkCompute(b *testing.B) {
	_, _, old, new := benchPair()
	b.ReportAllocs()
	for b.Loop() {
		benchSink = Compute(old, new, 1, 2)
	}
}

func BenchmarkEncode(b *testing.B) {
	_, _, old, new := benchPair()
	d := Compute(old, new, 1, 2)
	b.ReportAllocs()
	for b.Loop() {
		benchSink = Encode(d)
	}
}

func BenchmarkDecodeApply(b *testing.B) {
	_, _, old, new := benchPair()
	enc := Encode(Compute(old, new, 1, 2))
	b.ReportAllocs()
	for b.Loop() {
		d, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		if benchSink, err = d.Apply(old); err != nil {
			b.Fatal(err)
		}
	}
}
