package kvstore

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"netclone/internal/workload"
)

func TestKeyRankRoundTrip(t *testing.T) {
	f := func(rank uint64) bool {
		k := KeyForRank(rank)
		r, err := RankForKey(k)
		return err == nil && r == rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRankForKeyRejectsCorrupt(t *testing.T) {
	k := KeyForRank(42)
	k[8] ^= 0xFF
	if _, err := RankForKey(k); err == nil {
		t.Fatal("corrupt key accepted")
	}
}

func TestGetReturnsDistinctValues(t *testing.T) {
	s := NewStore(100)
	var a, b [ValueSize]byte
	if n := s.Get(1, a[:]); n != ValueSize {
		t.Fatalf("Get wrote %d bytes, want %d", n, ValueSize)
	}
	if n := s.Get(2, b[:]); n != ValueSize {
		t.Fatalf("Get wrote %d bytes, want %d", n, ValueSize)
	}
	if a == b {
		t.Fatal("objects 1 and 2 have identical values")
	}
}

func TestGetOutOfRange(t *testing.T) {
	s := NewStore(10)
	var buf [ValueSize]byte
	if n := s.Get(10, buf[:]); n != 0 {
		t.Fatalf("out-of-range Get returned %d bytes", n)
	}
}

func TestSetGet(t *testing.T) {
	s := NewStore(10)
	val := []byte("hello")
	if !s.Set(3, val) {
		t.Fatal("Set failed")
	}
	var buf [ValueSize]byte
	s.Get(3, buf[:])
	if string(buf[:5]) != "hello" {
		t.Fatalf("Get after Set = %q", buf[:5])
	}
	for i := 5; i < ValueSize; i++ {
		if buf[i] != 0 {
			t.Fatal("Set did not zero-pad the remainder")
		}
	}
	if s.Set(99, val) {
		t.Fatal("out-of-range Set succeeded")
	}
}

func TestScanSpanAndWrap(t *testing.T) {
	s := NewStore(50)
	_, read := s.Scan(0, workload.ScanSpan)
	if read != workload.ScanSpan {
		t.Fatalf("Scan read %d objects, want %d (wrapping)", read, workload.ScanSpan)
	}
	sum1, _ := s.Scan(10, 5)
	sum2, _ := s.Scan(10, 5)
	if sum1 != sum2 {
		t.Fatal("Scan checksum not deterministic")
	}
	sum3, _ := s.Scan(11, 5)
	if sum1 == sum3 {
		t.Fatal("different ranges produced identical checksums")
	}
	if _, read := s.Scan(0, 0); read != 0 {
		t.Fatal("zero-span scan read objects")
	}
}

func TestScanSeesWrites(t *testing.T) {
	s := NewStore(10)
	before, _ := s.Scan(0, 10)
	s.Set(5, []byte{0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88})
	after, _ := s.Scan(0, 10)
	if before == after {
		t.Fatal("Scan checksum unchanged after Set")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			var buf [ValueSize]byte
			for i := 0; i < 2000; i++ {
				r := rng.Uint64N(1000)
				switch i % 3 {
				case 0:
					s.Get(r, buf[:])
				case 1:
					s.Scan(r, 10)
				case 2:
					s.Set(r, buf[:8])
				}
			}
		}(w)
	}
	wg.Wait() // run with -race to catch data races
}

func TestCostModelOrdering(t *testing.T) {
	for _, m := range []CostModel{Redis(), Memcached()} {
		if m.Mean(workload.OpScan) <= m.Mean(workload.OpGet) {
			t.Errorf("%s: SCAN must cost more than GET", m.Name)
		}
		// SCAN reads 100 objects; it must cost tens of GETs.
		if m.Mean(workload.OpScan) < 20*m.Mean(workload.OpGet) {
			t.Errorf("%s: SCAN/GET ratio %.1f too small", m.Name,
				m.Mean(workload.OpScan)/m.Mean(workload.OpGet))
		}
	}
}

func TestMemcachedFasterThanRedis(t *testing.T) {
	if Memcached().Mean(workload.OpGet) >= Redis().Mean(workload.OpGet) {
		t.Fatal("Memcached GET should be cheaper than Redis GET (Fig 12 vs 11)")
	}
}

func TestCostModelSamplePositive(t *testing.T) {
	m := Redis()
	rng := rand.New(rand.NewPCG(1, 1))
	for _, op := range []workload.OpKind{workload.OpGet, workload.OpScan, workload.OpSet, workload.OpKind(9)} {
		for i := 0; i < 100; i++ {
			if v := m.Sample(op, rng); v < 1 {
				t.Fatalf("%v sample %d < 1ns", op, v)
			}
		}
	}
}

func TestCostModelEmpiricalMean(t *testing.T) {
	m := Redis()
	rng := rand.New(rand.NewPCG(2, 2))
	var sum float64
	const n = 300_000
	for i := 0; i < n; i++ {
		sum += float64(m.Sample(workload.OpGet, rng))
	}
	got := sum / n
	want := m.Mean(workload.OpGet)
	if d := (got - want) / want; d > 0.03 || d < -0.03 {
		t.Errorf("empirical GET mean %v, want ~%v", got, want)
	}
}

func TestMixMean(t *testing.T) {
	m := Redis()
	mix := workload.NewKVMix(0.99, 0.01, 1000, 0.99)
	got := m.MixMean(mix)
	want := 0.99*m.Mean(workload.OpGet) + 0.01*m.Mean(workload.OpScan)
	if d := (got - want) / want; d > 1e-9 || d < -1e-9 {
		t.Errorf("MixMean = %v, want %v", got, want)
	}
}

func TestDistForAdapter(t *testing.T) {
	m := Memcached()
	d := m.DistFor(workload.OpScan)
	if d.Mean() != m.Mean(workload.OpScan) {
		t.Error("DistFor mean mismatch")
	}
	if d.Name() != "memcached/SCAN" {
		t.Errorf("DistFor name = %q", d.Name())
	}
	rng := rand.New(rand.NewPCG(3, 3))
	if d.Sample(rng) < 1 {
		t.Error("DistFor sample < 1")
	}
}

func BenchmarkScan100(b *testing.B) {
	s := NewStore(DefaultObjects)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Scan(uint64(i)%DefaultObjects, workload.ScanSpan)
	}
}
