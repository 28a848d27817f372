package simcluster

import (
	"testing"

	"netclone/internal/topology"
)

// twoRack moves cfg onto the paper's two-ToR deployment (§3.7): an
// empty client rack in front of one rack holding every server, the two
// default uplinks making a 2 us one-way crossing.
func twoRack(cfg *Config) {
	cfg.Topology = topology.New(topology.Rack{}, topology.Rack{Servers: cfg.Workers})
}

func TestMultiRackConservation(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, CClone, NetClone, NetCloneRackSched} {
		cfg := fastConfig(scheme)
		twoRack(&cfg)
		res := mustRun(t, cfg)
		if res.Completed != res.Generated {
			t.Errorf("%v multi-rack lost requests: %d/%d", scheme, res.Completed, res.Generated)
		}
	}
}

func TestMultiRackRejectsLaedge(t *testing.T) {
	cfg := fastConfig(LAEDGE)
	twoRack(&cfg)
	if _, err := Run(cfg); err == nil {
		t.Fatal("LAEDGE on a two-rack fabric must be rejected")
	}
}

// TestMultiRackOwnershipRule is the §3.7 invariant: the server-side ToR
// runs the full NetClone program but must never clone, sequence, filter,
// or track state for packets stamped by the client-side ToR.
func TestMultiRackOwnershipRule(t *testing.T) {
	cfg := fastConfig(NetClone)
	twoRack(&cfg)
	res := mustRun(t, cfg)

	if res.Switch.Cloned == 0 {
		t.Fatal("client-side ToR never cloned at low load")
	}
	if len(res.Racks) != 2 {
		t.Fatalf("per-rack rollup has %d racks, want 2", len(res.Racks))
	}
	remote := res.Racks[1].Switch
	if remote.PassL3 == 0 {
		t.Fatal("server-side ToR never exercised the pass-through path")
	}
	if remote.Cloned != 0 {
		t.Errorf("server-side ToR cloned %d requests (double cloning!)", remote.Cloned)
	}
	if remote.Requests != 0 {
		t.Errorf("server-side ToR NetClone-processed %d requests", remote.Requests)
	}
	if remote.StateUpdates != 0 {
		t.Errorf("server-side ToR updated state %d times", remote.StateUpdates)
	}
	if remote.FilterDrops != 0 || remote.FilterInserts != 0 {
		t.Errorf("server-side ToR touched filter tables (%d drops, %d inserts)",
			remote.FilterDrops, remote.FilterInserts)
	}
	// Every request and every response transits the remote ToR exactly
	// once (plus clones).
	wantTransits := res.Generated + res.Switch.Cloned + // requests + clones
		int64(res.Completed) + res.Switch.FilterDrops // responses (delivered + filtered)
	if remote.PassL3 < wantTransits-res.CloneDropsAtServer-res.Switch.FilterDrops {
		t.Logf("transits %d vs rough expectation %d (informational)", remote.PassL3, wantTransits)
	}
}

func TestMultiRackLatencyIncludesAggLayer(t *testing.T) {
	cfg := fastConfig(NetClone)
	cfg.OfferedRPS = 50_000
	single := mustRun(t, cfg)
	twoRack(&cfg)
	const aggNS = 2 * int64(topology.DefaultUplink)
	multi := mustRun(t, cfg)

	// Two extra aggregation traversals (request and response) plus two
	// extra switch passes, minus the two ToR->host link delays the
	// single-rack path charged... net extra per request:
	// 2*(agg + switchDelay) - is the dominant term; assert the floor
	// moved up by at least 2*agg.
	extra := multi.Latency.Min - single.Latency.Min
	if extra < 2*aggNS {
		t.Errorf("multi-rack min latency extra %dns, want >= %dns", extra, 2*aggNS)
	}
	// And cloning still wins on the tail in multi-rack deployments.
	cfgB := cfg
	cfgB.Scheme = Baseline
	base := mustRun(t, cfgB)
	if multi.Latency.P99 >= base.Latency.P99 {
		t.Errorf("multi-rack NetClone p99 %d >= baseline %d", multi.Latency.P99, base.Latency.P99)
	}
}

func TestMultiRackDeterminism(t *testing.T) {
	cfg := fastConfig(NetClone)
	twoRack(&cfg)
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Latency != b.Latency || a.Racks[1] != b.Racks[1] {
		t.Error("multi-rack runs not deterministic")
	}
}

func TestSingleRackHasNoRemoteStats(t *testing.T) {
	res := mustRun(t, fastConfig(NetClone))
	if res.Racks != nil {
		t.Errorf("single-rack run reported a per-rack rollup: %+v", res.Racks)
	}
}
