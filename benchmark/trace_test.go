package main

import (
	"net/http/httptest"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	cases := []struct {
		children []span
		want     int64
	}{
		{nil, 100},
		{[]span{{Start: 10, End: 30}}, 80},
		// Overlapping children count once; a child sticking out of the
		// parent counts only inside it.
		{[]span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 60, End: 70}, {Start: 90, End: 120}}, 40},
		{[]span{{Start: 60, End: 70}, {Start: 10, End: 30}}, 70},
		{[]span{{Start: -10, End: 200}}, 0},
		{[]span{{Start: 100, End: 150}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != time.Duration(c.want) {
			t.Errorf("selfTime(%v) = %d, want %d", c.children, got, c.want)
		}
	}
}

func TestLinkParentsFollowsLayers(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 7, Name: "client", Start: 0, End: 100},
		{ID: 2, Trace: 7, Name: "router", Start: 10, End: 90},
		{ID: 3, Trace: 7, Name: "web.problems", Start: 20, End: 40},
		{ID: 4, Trace: 7, Name: "web.problems", Start: 50, End: 80},
		{ID: 5, Trace: 8, Name: "router", Start: 15, End: 30},
		{ID: 6, Trace: 0, Name: "store.put", Start: 25, End: 30},
	}
	linkParents(spans)
	want := []uint64{0, 1, 2, 2, 0, 0}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s, trace %d): parent %d, want %d", s.ID, s.Name, s.Trace, s.Parent, want[i])
		}
	}
}

func TestTraceIDAndSpanNames(t *testing.T) {
	r := httptest.NewRequest("GET", "/schedule?problem=p001&format=json&bench_trace=42", nil)
	if id := traceID(r); id != 42 {
		t.Fatalf("traceID = %d, want 42", id)
	}
	if id := traceID(httptest.NewRequest("GET", "/schedule?problem=p001", nil)); id != 0 {
		t.Fatalf("untagged request: traceID = %d", id)
	}
	if name := webSpanName(r); name != "web.schedule" {
		t.Fatalf("span name %q", name)
	}
	if name := webSpanName(httptest.NewRequest("POST", "/schedule/batch", nil)); name != "web.schedule.batch" {
		t.Fatalf("span name %q", name)
	}
}
