// Package kvstore implements the in-memory key-value substrate used by
// the paper's application experiments (§5.5): 1 million objects with
// 16-byte keys and 64-byte values, GET/SCAN/SET operations, and
// Redis-like / Memcached-like service-cost models.
//
// The Store serves real data to the UDP emulation servers. Initial
// values are computed from rank on read, and only the chunks that have
// been written are stored, so a store of any size costs nothing until
// its first Set. The CostModel supplies calibrated service-time
// distributions to the discrete-event simulation (see EXPERIMENTS.md for
// the calibration).
package kvstore

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Paper §5.5 workload dimensions.
const (
	DefaultObjects = 1_000_000 // "1 million objects"
	KeySize        = 16        // "16-byte keys"
	ValueSize      = 64        // "64-byte values"
)

// chunkObjects is the number of objects a Set materializes at once:
// 1024 x ValueSize = 64 KiB, so the first write to a region costs one
// chunk, not the whole store.
const chunkObjects = 1024

// chunk holds the stored values of chunkObjects consecutive ranks.
type chunk [chunkObjects * ValueSize]byte

// initTails holds bytes 8.. of every initial value. Byte j of rank r's
// value is byte(r+j), so the tail depends only on byte(r): 256 rows
// cover every rank.
var initTails = func() (t [256][ValueSize - 8]byte) {
	for r := range t {
		for j := range t[r] {
			t[r][j] = byte(r + 8 + j)
		}
	}
	return t
}()

// putInitial writes rank's initial value into v[:ValueSize]: the
// big-endian rank followed by byte(rank+j) at each byte j >= 8.
func putInitial(v []byte, rank uint64) {
	binary.BigEndian.PutUint64(v, rank)
	copy(v[8:ValueSize], initTails[byte(rank)][:])
}

// Store is an in-memory object store addressed by key rank. Keys are the
// canonical 16-byte encoding of the rank (see KeyForRank); values are
// ValueSize-byte blobs. Store is safe for concurrent use.
//
// A value never written is computed from its rank on read; only the
// chunks holding written ranks are stored.
type Store struct {
	mu     sync.RWMutex
	chunks []*chunk // nil until the first Set; a nil chunk is unwritten
	n      int
}

// NewStore builds a store with n objects, each initialized to a
// deterministic value derived from its rank. Nothing proportional to n
// is allocated until the first Set.
func NewStore(n int) *Store {
	return &Store{n: n}
}

// stored returns the materialized chunk holding rank and rank's byte
// offset in it, or nil when rank still has its initial value. Caller
// holds s.mu.
func (s *Store) stored(rank uint64) (*chunk, uint64) {
	if s.chunks == nil {
		return nil, 0
	}
	return s.chunks[rank/chunkObjects], rank % chunkObjects * ValueSize
}

// Len returns the number of objects.
func (s *Store) Len() int { return s.n }

// KeyForRank encodes rank as the canonical 16-byte key.
func KeyForRank(rank uint64) [KeySize]byte {
	var k [KeySize]byte
	binary.BigEndian.PutUint64(k[0:8], rank)
	binary.BigEndian.PutUint64(k[8:16], ^rank)
	return k
}

// RankForKey decodes a canonical key back to its rank, validating the
// redundancy in the second half.
func RankForKey(k [KeySize]byte) (uint64, error) {
	r := binary.BigEndian.Uint64(k[0:8])
	if binary.BigEndian.Uint64(k[8:16]) != ^r {
		return 0, fmt.Errorf("kvstore: malformed key %x", k)
	}
	return r, nil
}

// Get copies the value for rank into dst (which must have room for
// ValueSize bytes) and returns the number of bytes written. It returns 0
// for out-of-range ranks.
func (s *Store) Get(rank uint64, dst []byte) int {
	if rank >= uint64(s.n) {
		return 0
	}
	s.mu.RLock()
	if c, off := s.stored(rank); c != nil {
		n := copy(dst, c[off:off+ValueSize])
		s.mu.RUnlock()
		return n
	}
	s.mu.RUnlock()
	// Writing straight into dst skips a staging copy; that copy made Get
	// slower than reading the old materialized array.
	if len(dst) >= ValueSize {
		putInitial(dst, rank)
		return ValueSize
	}
	var v [ValueSize]byte
	putInitial(v[:], rank)
	return copy(dst, v[:])
}

// Scan reads span consecutive objects starting at rank (wrapping at the
// end of the keyspace, so a scan near the boundary still reads span
// objects) and returns a rolling checksum of the data plus the number of
// objects read. The checksum covers each value's first 8 bytes, which
// for an unwritten value are its rank.
func (s *Store) Scan(rank uint64, span int) (sum uint64, read int) {
	if s.n == 0 || span <= 0 {
		return 0, 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := 0; i < span; i++ {
		r := (rank + uint64(i)) % uint64(s.n)
		head := r
		if c, off := s.stored(r); c != nil {
			head = binary.BigEndian.Uint64(c[off:])
		}
		sum = sum*1099511628211 + head
		read++
	}
	return sum, read
}

// Set overwrites the value at rank. Values longer than ValueSize are
// truncated; shorter values are zero-padded. Returns false for
// out-of-range ranks. The first write to a chunk of chunkObjects ranks
// materializes it from the initial values.
func (s *Store) Set(rank uint64, val []byte) bool {
	if rank >= uint64(s.n) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chunks == nil {
		s.chunks = make([]*chunk, (s.n+chunkObjects-1)/chunkObjects)
	}
	ci := rank / chunkObjects
	c := s.chunks[ci]
	if c == nil {
		c = new(chunk)
		base := ci * chunkObjects
		for i := uint64(0); i < chunkObjects; i++ {
			putInitial(c[i*ValueSize:], base+i)
		}
		s.chunks[ci] = c
	}
	off := rank % chunkObjects * ValueSize
	dst := c[off : off+ValueSize]
	clear(dst[copy(dst, val):])
	return true
}
