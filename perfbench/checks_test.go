package main

import (
	"strings"
	"testing"

	"netclone/internal/dataplane"
	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/stats"
)

// netCloneResult is a consistent NetClone point: 100 requests, 90
// cloned, 10 clones dropped at the servers, 80 slower responses
// filtered, 2 duplicates let through by 3 overwrites.
func netCloneResult() scenario.Result {
	var r scenario.Result
	r.Scheme = simcluster.NetClone
	r.Latency = stats.Summary{Count: 95, Min: 1, P50: 2, P90: 3, P99: 4, P999: 5, Max: 6}
	r.Generated, r.Completed = 100, 98
	r.CloneDropsAtServer, r.RedundantAtClient = 10, 2
	r.Switch = dataplane.Stats{Requests: 100, Cloned: 90, Recirculated: 90, Responses: 180,
		FilterDrops: 80, FilterInserts: 100, FilterOverwrites: 3}
	return r
}

func TestCheckSimPointAcceptsConsistentCounters(t *testing.T) {
	if bad := checkSimPoint(netCloneResult()); len(bad) > 0 {
		t.Fatalf("consistent counters flagged: %v", bad)
	}
}

func TestCheckSimPointCatchesBrokenRelations(t *testing.T) {
	for _, c := range []struct {
		name   string
		break_ func(*scenario.Result)
		want   string
	}{
		{"duplicates beyond overwrites", func(r *scenario.Result) { r.RedundantAtClient = 4 }, "filter overwrites"},
		{"more responses than executions", func(r *scenario.Result) { r.Switch.Responses = 181 }, "responses 181"},
		{"completions nobody sent", func(r *scenario.Result) { r.Completed = 101 }, "generated"},
		{"baseline that clones", func(r *scenario.Result) { r.Scheme = simcluster.Baseline }, "baseline cloned"},
		{"quantiles out of order", func(r *scenario.Result) { r.Latency.P90 = 1 }, "out of order"},
	} {
		r := netCloneResult()
		c.break_(&r)
		bad := strings.Join(checkSimPoint(r), "\n")
		if !strings.Contains(bad, c.want) {
			t.Errorf("%s: problems %q, want one mentioning %q", c.name, bad, c.want)
		}
	}
}
