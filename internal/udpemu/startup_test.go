package udpemu

import (
	"runtime"
	"testing"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/workload"
)

// loopbackShape is the emu-loopback benchmark rig: 2 servers x 2
// workers, cloning and filtering at the prototype's 2 x 2^17 filter
// slots, and a 2^16-object store.
func loopbackShape() ClusterConfig {
	return ClusterConfig{
		Dataplane: dataplane.Config{
			MaxServers:      2,
			FilterTables:    2,
			FilterSlots:     1 << 17,
			EnableCloning:   true,
			EnableFiltering: true,
		},
		Workers:      []int{2, 2},
		StoreObjects: 1 << 16,
		Timeout:      200 * time.Millisecond,
	}
}

// startCycle starts and closes one loopback-shaped cluster.
func startCycle(tb testing.TB) {
	tb.Helper()
	c, err := StartCluster(loopbackShape())
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkStartCluster(b *testing.B) {
	startCycle(b) // warm the filter-register pool
	b.ReportAllocs()
	for b.Loop() {
		startCycle(b)
	}
}

// startCycleAllocBound caps the bytes one StartCluster/Close cycle of
// the loopback shape allocates once the filter-register pool is warm.
// Measured at 1.22 MB per cycle on linux/amd64 (Go 1.24): the 1 MiB
// of filter registers come back from the pool, and nothing is sized by
// the store's object count. The bound leaves ~60% headroom for socket
// and goroutine bookkeeping; the bytes it guards against are the
// 4 MiB value fill and the 1 MiB of fresh filter registers, which
// together put a cycle at 6.46 MB.
const startCycleAllocBound = 2 << 20

func TestStartClusterAllocBound(t *testing.T) {
	const cycles = 5
	startCycle(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		startCycle(t)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("%d bytes per StartCluster/Close cycle", per)
	if per > startCycleAllocBound {
		t.Fatalf("one StartCluster/Close cycle allocates %d bytes, bound %d", per, startCycleAllocBound)
	}
}

// TestSwitchCountersSurviveClose checks that Close, which hands the
// filter registers back to the pool, leaves every counter readable
// and unchanged.
func TestSwitchCountersSurviveClose(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Dataplane: dataplane.Config{
			FilterTables: 2, FilterSlots: 1 << 10,
			EnableCloning: true, EnableFiltering: true,
		},
		Workers: []int{2, 2},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Clients[0].Do(c.Switch.NumGroups(), workload.OpGet, uint64(i), 0, nil); err != nil {
			c.Close()
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let trailing clone responses reach the switch
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got := c.Counters()
	if got.Switch.Requests < 50 {
		t.Fatalf("switch counted %d requests after Close, want >= 50", got.Switch.Requests)
	}
	if again := c.Counters(); again != got {
		t.Fatalf("counters moved after Close: %+v then %+v", got, again)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
