package kvstore

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
)

// refFill is the store's original materializing fill loop, kept as the
// reference every computed value must match byte for byte.
func refFill(n int) []byte {
	vals := make([]byte, n*ValueSize)
	for i := 0; i < n; i++ {
		refPut(vals[i*ValueSize:(i+1)*ValueSize], i)
	}
	return vals
}

// refPut is one iteration of refFill: the initial value of rank i.
func refPut(v []byte, i int) {
	binary.BigEndian.PutUint64(v, uint64(i))
	for j := 8; j < ValueSize; j++ {
		v[j] = byte(i + j)
	}
}

// refScan is the original Scan over a materialized value array.
func refScan(vals []byte, n int, rank uint64, span int) (sum uint64) {
	for i := 0; i < span; i++ {
		r := (rank + uint64(i)) % uint64(n)
		sum = sum*1099511628211 + binary.BigEndian.Uint64(vals[r*ValueSize:])
	}
	return sum
}

func TestGetMatchesReferenceFillEveryRank(t *testing.T) {
	const n = 4096
	s, ref := NewStore(n), refFill(n)
	var buf [ValueSize]byte
	for r := 0; r < n; r++ {
		if got := s.Get(uint64(r), buf[:]); got != ValueSize {
			t.Fatalf("Get(%d) wrote %d bytes, want %d", r, got, ValueSize)
		}
		if want := ref[r*ValueSize : (r+1)*ValueSize]; !bytes.Equal(buf[:], want) {
			t.Fatalf("Get(%d) = %x, want %x", r, buf, want)
		}
	}
}

func TestGetMatchesReferenceDefaultObjects(t *testing.T) {
	s := NewStore(DefaultObjects)
	var got, want [ValueSize]byte
	for _, r := range []int{0, 1, 255, 256, 257, DefaultObjects - 1} {
		s.Get(uint64(r), got[:])
		refPut(want[:], r)
		if got != want {
			t.Errorf("Get(%d) = %x, want %x", r, got, want)
		}
	}
}

// TestGetShortDst pins copy semantics for a destination shorter than a
// value, on both the computed and the stored path.
func TestGetShortDst(t *testing.T) {
	s, ref := NewStore(2*chunkObjects), refFill(2*chunkObjects)
	s.Set(chunkObjects+3, []byte("stored"))
	for _, r := range []uint64{5, chunkObjects + 3} {
		want := ref[r*ValueSize : r*ValueSize+10]
		if r == chunkObjects+3 {
			want = []byte("stored\x00\x00\x00\x00")
		}
		dst := make([]byte, 10)
		if got := s.Get(r, dst); got != 10 || !bytes.Equal(dst, want) {
			t.Errorf("Get(%d, 10-byte dst) = %d, %x; want 10, %x", r, got, dst, want)
		}
	}
}

func TestScanMatchesReferenceAcrossWrap(t *testing.T) {
	const n = 3*chunkObjects + 17
	s, ref := NewStore(n), refFill(n)
	spans := []struct {
		rank uint64
		span int
	}{
		{0, 100}, {n - 5, 100}, {n - 1, 2}, {n + 3, 10}, {chunkObjects - 2, 4}, {7, 2*n + 1},
	}
	check := func(label string) {
		t.Helper()
		for _, c := range spans {
			sum, read := s.Scan(c.rank, c.span)
			if want := refScan(ref, n, c.rank, c.span); sum != want || read != c.span {
				t.Errorf("%s: Scan(%d, %d) = %x, %d; want %x, %d", label, c.rank, c.span, sum, read, want, c.span)
			}
		}
	}
	check("computed")
	// Writes on both sides of the wrap must show in the checksums.
	for _, r := range []uint64{n - 2, 1, chunkObjects - 1} {
		v := []byte{0xAB, 0xCD, byte(r), 0, 0, 0, 0, 9}
		s.Set(r, v)
		copy(ref[r*ValueSize:], v)
		clear(ref[r*ValueSize+uint64(len(v)) : (r+1)*ValueSize])
	}
	check("after writes")
}

func TestSetTruncatesAndPads(t *testing.T) {
	s := NewStore(10)
	long := bytes.Repeat([]byte{0x5A}, ValueSize+40)
	if !s.Set(4, long) {
		t.Fatal("Set failed")
	}
	var buf [ValueSize]byte
	if n := s.Get(4, buf[:]); n != ValueSize || !bytes.Equal(buf[:], long[:ValueSize]) {
		t.Fatalf("Get after long Set = %d, %x; want the first %d bytes", n, buf, ValueSize)
	}
	s.Set(4, []byte{1, 2, 3})
	s.Get(4, buf[:])
	want := make([]byte, ValueSize)
	copy(want, []byte{1, 2, 3})
	if !bytes.Equal(buf[:], want) {
		t.Fatalf("Get after short Set = %x, want %x", buf, want)
	}
	s.Set(4, nil)
	s.Get(4, buf[:])
	if buf != ([ValueSize]byte{}) {
		t.Fatalf("Get after empty Set = %x, want zeros", buf)
	}
}

func TestSetMaterializesOnlyItsChunk(t *testing.T) {
	const n = 4*chunkObjects + 7
	s, ref := NewStore(n), refFill(n)
	const w = chunkObjects + 5
	s.Set(w, []byte("written"))
	for ci, c := range s.chunks {
		if (c != nil) != (ci == 1) {
			t.Errorf("chunk %d materialized = %v, want %v", ci, c != nil, ci == 1)
		}
	}
	var buf [ValueSize]byte
	for r := 0; r < n; r++ {
		s.Get(uint64(r), buf[:])
		want := ref[r*ValueSize : (r+1)*ValueSize]
		if r == w {
			want = append([]byte("written"), make([]byte, ValueSize-7)...)
		}
		if !bytes.Equal(buf[:], want) {
			t.Fatalf("Get(%d) = %x, want %x", r, buf, want)
		}
	}
	// The last, partial chunk materializes too.
	s.Set(n-1, []byte("last"))
	s.Get(n-2, buf[:])
	if !bytes.Equal(buf[:], ref[(n-2)*ValueSize:(n-1)*ValueSize]) {
		t.Fatalf("neighbour of the last rank changed: %x", buf)
	}
}

// TestConcurrentGetScanSetKeepsUntouchedValues runs writers on even
// ranks against readers of odd ranks (run with -race): every odd rank
// must keep its initial value while chunks materialize under it.
func TestConcurrentGetScanSetKeepsUntouchedValues(t *testing.T) {
	const n = 8 * chunkObjects
	s := NewStore(n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var v [ValueSize]byte
			for r := 2 * w; r < n; r += 4 {
				binary.BigEndian.PutUint64(v[:], ^uint64(r))
				s.Set(uint64(r), v[:])
			}
		}(w)
	}
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got, want [ValueSize]byte
			for r := 2*g + 1; r < n; r += 8 {
				s.Get(uint64(r), got[:])
				refPut(want[:], r)
				if got != want {
					errs <- "Get changed an unwritten rank"
					return
				}
				if sum, _ := s.Scan(uint64(r), 1); sum != uint64(r) {
					errs <- "Scan changed an unwritten rank"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	var got [ValueSize]byte
	for r := 0; r < n; r += 2 {
		s.Get(uint64(r), got[:])
		if binary.BigEndian.Uint64(got[:]) != ^uint64(r) {
			t.Fatalf("rank %d lost its write", r)
		}
	}
}

var storeSink *Store

func BenchmarkNewStore(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		storeSink = NewStore(DefaultObjects)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore(DefaultObjects)
	var buf [ValueSize]byte
	b.ReportAllocs()
	var rank uint64
	for b.Loop() {
		s.Get(rank%DefaultObjects, buf[:])
		rank++
	}
}
