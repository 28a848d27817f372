package main

import (
	"fmt"

	"netclone/internal/scenario"
	"netclone/internal/simcluster"
)

// fingerprint renders every simulated statistic of a point that a
// speed-only change must leave identical: the latency summary and the
// counters. Engine event counts are cost, not output, and are left out.
func fingerprint(r scenario.Result) string {
	l := r.Latency
	s := r.Switch
	out := fmt.Sprintf("lat=%d/%d/%d/%d/%d/%d/%d mean=%.6f gen=%d done=%d served=%d cdrop=%d red=%d"+
		" sw=%d/%d/%d/%d/%d/%d/%d/%d",
		l.Count, l.Min, l.P50, l.P90, l.P99, l.P999, l.Max, l.Mean,
		r.Generated, r.Completed, r.ServerProcessed, r.CloneDropsAtServer, r.RedundantAtClient,
		s.Requests, s.Cloned, s.Recirculated, s.Responses, s.FilterDrops, s.FilterInserts, s.FilterOverwrites, s.StateUpdates)
	if c := r.Congestion; c != nil {
		out += fmt.Sprintf(" cong=%d/%d/%d/%d", c.Drops, c.Marks, c.MaxDepth, c.MarkedAtClients)
	}
	return out
}

// checkSimPoint states exact relations between a point's own counters
// that hold for every seed, and returns each one that fails.
func checkSimPoint(r scenario.Result) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	s, l := r.Switch, r.Latency
	check(l.Count > 0, "no request completed in the window")
	check(l.Min <= l.P50 && l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max,
		"latency quantiles out of order: %+v", l)
	check(l.Count <= r.Completed && r.Completed <= r.Generated,
		"window %d <= completed %d <= generated %d", l.Count, r.Completed, r.Generated)
	// Every execution starts from a request or a recirculated clone
	// that the server did not drop.
	check(s.Responses <= s.Requests+s.Recirculated-r.CloneDropsAtServer,
		"responses %d > requests %d + recirculated %d - clone drops %d",
		s.Responses, s.Requests, s.Recirculated, r.CloneDropsAtServer)
	check(s.Recirculated <= s.Cloned, "recirculated %d > cloned %d", s.Recirculated, s.Cloned)
	check(s.FilterDrops <= s.Cloned, "filter drops %d > cloned %d", s.FilterDrops, s.Cloned)
	// A client sees every response the filter passes, at most once.
	check(r.Completed+r.RedundantAtClient <= s.Responses-s.FilterDrops,
		"completed %d + redundant %d > responses %d - filter drops %d",
		r.Completed, r.RedundantAtClient, s.Responses, s.FilterDrops)
	switch r.Scheme {
	case simcluster.Baseline:
		check(s.Cloned == 0 && r.RedundantAtClient == 0 && r.CloneDropsAtServer == 0,
			"baseline cloned %d, redundant %d, clone drops %d", s.Cloned, r.RedundantAtClient, r.CloneDropsAtServer)
		check(s.Requests <= r.Generated, "switch requests %d > generated %d", s.Requests, r.Generated)
	case simcluster.NetClone:
		// The filter may pass a duplicate only where an insert overwrote
		// a foreign fingerprint (§3.5).
		check(r.RedundantAtClient <= s.FilterOverwrites,
			"redundant %d > filter overwrites %d", r.RedundantAtClient, s.FilterOverwrites)
		check(s.Cloned > 0, "NetClone never cloned")
		check(s.Requests <= r.Generated, "switch requests %d > generated %d", s.Requests, r.Generated)
	case simcluster.CClone:
		// The client sends every request twice and keeps the first reply.
		check(s.Cloned == 0, "C-Clone switch cloned %d", s.Cloned)
		check(s.Requests <= 2*r.Generated, "switch requests %d > 2 x generated %d", s.Requests, r.Generated)
		check(r.RedundantAtClient <= r.Completed, "redundant %d > completed %d", r.RedundantAtClient, r.Completed)
	}
	if c := r.Congestion; c != nil {
		var arrivals, drops, marks int64
		for _, p := range c.Ports {
			arrivals += p.Arrivals
			drops += p.Drops
			marks += p.Marks
			check(p.Drops+p.Marks <= p.Arrivals, "port %s/%d: drops %d + marks %d > arrivals %d",
				p.Class, p.Index, p.Drops, p.Marks, p.Arrivals)
		}
		check(drops == c.Drops && marks == c.Marks, "port sums %d drops, %d marks != totals %d, %d",
			drops, marks, c.Drops, c.Marks)
		check(c.MarkedAtClients <= r.Completed+r.RedundantAtClient,
			"marked at clients %d > responses received %d", c.MarkedAtClients, r.Completed+r.RedundantAtClient)
	}
	return bad
}
