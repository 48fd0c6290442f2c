package honeycomb

import (
	"fmt"

	"corona/internal/wirebin"
)

// Native binary wire form for cluster sets, carried inside maintenance
// messages. A set is sparse by construction — TradeoffBins clusters per
// level but most empty — so only non-empty clusters travel, each tagged
// with its (level, bin) coordinates:
//
//	bins      svarint
//	maxLevel  svarint
//	slack     cluster
//	n         uvarint             count of non-empty clusters
//	n ×       level svarint, bin svarint, cluster
//
//	cluster = count, sumQ, sumS, sumLogU  (4 × 8-byte LE float64)
//	          level svarint
//
// Floats are fixed bit patterns, so the encoding is byte-stable and
// bit-exact — aggregation sums survive any number of hops unchanged.

// geometry bounds reject hostile encodings before allocating: real sets
// are TradeoffBins (16) × MaxLevel+1 (a handful), so the caps leave an
// order of magnitude of headroom while keeping the eager allocation in
// NewClusterSet small — maxWireCells bounds it to ~640 KiB, so a tiny
// hostile payload cannot demand an out-of-proportion allocation.
const (
	maxWireBins   = 256
	maxWireLevels = 256
	maxWireCells  = 16384
)

func appendCluster(dst []byte, c Cluster) []byte {
	dst = wirebin.AppendFloat64(dst, c.Count)
	dst = wirebin.AppendFloat64(dst, c.SumQ)
	dst = wirebin.AppendFloat64(dst, c.SumS)
	dst = wirebin.AppendFloat64(dst, c.SumLogU)
	return wirebin.AppendSint(dst, c.Level)
}

func readCluster(r *wirebin.Reader) Cluster {
	var c Cluster
	c.Count = r.Float64()
	c.SumQ = r.Float64()
	c.SumS = r.Float64()
	c.SumLogU = r.Float64()
	c.Level = r.Sint()
	return c
}

// AppendBinary appends the set's native binary encoding to dst,
// the encoding half of the overlay's payload contract (pastry.Payload).
func (cs *ClusterSet) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirebin.AppendSint(dst, cs.Bins)
	dst = wirebin.AppendSint(dst, cs.MaxLevel)
	dst = appendCluster(dst, cs.Slack)
	n := 0
	for l := range cs.Clusters {
		for b := range cs.Clusters[l] {
			if cs.Clusters[l][b].Count != 0 {
				n++
			}
		}
	}
	dst = wirebin.AppendUvarint(dst, uint64(n))
	for l := range cs.Clusters {
		for b := range cs.Clusters[l] {
			if cs.Clusters[l][b].Count == 0 {
				continue
			}
			dst = wirebin.AppendSint(dst, l)
			dst = wirebin.AppendSint(dst, b)
			dst = appendCluster(dst, cs.Clusters[l][b])
		}
	}
	return dst, nil
}

// DecodeBinary parses an AppendBinary encoding into the receiver,
// the decoding half of the overlay's payload contract (pastry.Payload).
func (cs *ClusterSet) DecodeBinary(src []byte) error {
	r := wirebin.NewReader(src)
	bins := r.Sint()
	maxLevel := r.Sint()
	if r.Err() == nil && (bins < 0 || bins > maxWireBins || maxLevel < 0 || maxLevel > maxWireLevels ||
		bins*(maxLevel+1) > maxWireCells) {
		return fmt.Errorf("honeycomb: cluster set geometry %d×%d out of range", bins, maxLevel)
	}
	slack := readCluster(r)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("honeycomb: truncated cluster set: %w", err)
	}
	if n > uint64(bins)*uint64(maxLevel+1) {
		return fmt.Errorf("honeycomb: cluster count %d exceeds geometry %d×%d", n, bins, maxLevel+1)
	}
	decoded := NewClusterSet(bins, maxLevel)
	decoded.Slack = slack
	for i := uint64(0); i < n; i++ {
		l := r.Sint()
		b := r.Sint()
		c := readCluster(r)
		if err := r.Err(); err != nil {
			return fmt.Errorf("honeycomb: truncated cluster set: %w", err)
		}
		if l < 0 || l > maxLevel || b < 0 || b >= bins {
			return fmt.Errorf("honeycomb: cluster coordinates (%d,%d) out of range", l, b)
		}
		decoded.Clusters[l][b] = c
	}
	if r.Len() != 0 {
		return fmt.Errorf("honeycomb: cluster set has %d trailing bytes", r.Len())
	}
	*cs = *decoded
	return nil
}
