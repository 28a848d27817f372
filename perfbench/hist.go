package main

import "math/bits"

// 1<<subBits buckets per doubling bound a recorded latency's error to
// 1/128.
const subBits = 7

// lhist is a fixed-size log-linear histogram of nanosecond latencies,
// so recording costs no allocation and a phase's memory does not grow
// with its length.
type lhist struct {
	n int64
	b [(64 - subBits) << subBits]uint32
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketMid is the middle of a bucket's value range.
func bucketMid(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	shift := i>>subBits - 1
	lo := int64(i&(1<<subBits-1)+1<<subBits) << shift
	return lo + (int64(1)<<shift)/2
}

func (h *lhist) record(v int64) {
	h.b[bucketOf(v)]++
	h.n++
}

// quantile returns the q-quantile by the nearest-rank rule, as the
// middle of its bucket (0 for an empty histogram).
func (h *lhist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(q*float64(h.n)+0.999999999), 1)
	var seen int64
	for i, c := range h.b {
		if seen += int64(c); seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.b) - 1)
}
