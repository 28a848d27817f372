package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	phase := tr.add("phase", 0, at(0), at(100))
	// Two requests in flight together cover 10..50 once, not twice.
	r1 := tr.add("request", phase, at(10), at(40))
	tr.add("request", phase, at(20), at(50))
	tr.add("wait", r1, at(10), at(15))
	got := tr.selfTimes()
	for name, want := range map[string]time.Duration{
		"phase":   60 * time.Millisecond,
		"request": 55 * time.Millisecond, // 30 - 5 + 30
		"wait":    5 * time.Millisecond,
	} {
		if got[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, got[name], want)
		}
	}
	var csv bytes.Buffer
	if err := tr.writeCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 5 {
		t.Errorf("CSV has %d lines, want a header and 4 spans", lines)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	if id != 0 || tr.add("y", 0, time.Now(), time.Now()) != 0 {
		t.Error("a nil tracer must return span id 0")
	}
}
