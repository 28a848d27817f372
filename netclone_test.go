package netclone_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"netclone"
)

// facadeRunScenario is a small single-rack NetClone run declared with
// the facade's options.
func facadeRunScenario(warmup, duration time.Duration, seed uint64) *netclone.Scenario {
	return netclone.NewScenario(
		netclone.WithScheme(netclone.NetClone),
		netclone.WithTopology(8, 8),
		netclone.WithWorkload(netclone.WithJitter(netclone.Exp(25), 0.01)),
		netclone.WithOfferedLoad(100_000),
		netclone.WithWindow(warmup, duration),
		netclone.WithSeed(seed),
	)
}

func TestFacadeRun(t *testing.T) {
	res, err := netclone.Sim().Run(facadeRunScenario(5*time.Millisecond, 25*time.Millisecond, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("facade run completed nothing")
	}
	if res.Latency.P99 <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestFacadeExperimentParallelism(t *testing.T) {
	opts := netclone.QuickOptions()
	opts.DurationNS = 4e6
	opts.WarmupNS = 1e6
	opts.LoadFracs = []float64{0.3, 0.7}
	seq := opts
	seq.Parallelism = 1
	par := opts
	par.Parallelism = 8
	rSeq, err := netclone.RunExperiment("fig7a", seq)
	if err != nil {
		t.Fatal(err)
	}
	rPar, err := netclone.RunExperiment("fig7a", par)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := netclone.RenderCSV(&a, rSeq); err != nil {
		t.Fatal(err)
	}
	if err := netclone.RenderCSV(&b, rPar); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("fig7a differs between Parallelism 1 and 8:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestFacadeNoWarmup(t *testing.T) {
	if netclone.NoWarmup >= 0 {
		t.Fatalf("NoWarmup = %d, want negative sentinel", netclone.NoWarmup)
	}
}

func TestFacadeExperiment(t *testing.T) {
	opts := netclone.QuickOptions()
	opts.DurationNS = 5e6
	opts.WarmupNS = 1e6
	opts.LoadFracs = []float64{0.3}
	r, err := netclone.RunExperiment("fig7a", opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netclone.RenderText(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NetClone") {
		t.Errorf("rendered report missing NetClone series:\n%s", buf.String())
	}
	if err := netclone.RenderCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeUnknownExperiment(t *testing.T) {
	if _, err := netclone.RunExperiment("nope", netclone.QuickOptions()); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestFacadeInventory(t *testing.T) {
	if len(netclone.Experiments()) < 20 {
		t.Errorf("only %d experiments registered", len(netclone.Experiments()))
	}
	ids := netclone.ExperimentIDs()
	found := map[string]bool{}
	for _, id := range ids {
		found[id] = true
	}
	for _, want := range []string{"fig7a", "fig16", "table1", "table2", "abl-clonedrop"} {
		if !found[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestFacadeModels(t *testing.T) {
	if netclone.RedisModel().Name != "redis" || netclone.MemcachedModel().Name != "memcached" {
		t.Error("cost model names wrong")
	}
	mix := netclone.NewKVMix(0.9, 0.1, 1000, 0.99)
	if mix == nil {
		t.Fatal("NewKVMix returned nil")
	}
	if netclone.DefaultCalibration().LinkDelayNS <= 0 {
		t.Error("calibration defaults empty")
	}
	if netclone.Bimodal9010(25, 250).Mean() <= netclone.Exp(25).Mean() {
		t.Error("distribution helpers broken")
	}
}
