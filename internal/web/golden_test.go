package web

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/paperex"
	"repro/internal/sched"
	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The nondeterministic fields of /stats (elapsed compute time, the
// wall/monotonic clock anchors, and the process-global campaign
// progress counters — cumulative across every campaign the test
// process has run, so shuffle-order dependent) are scrubbed so the
// rest of the document can be compared exactly.
var (
	computeNS   = regexp.MustCompile(`"compute_ns": \{[^{}]*\}`)
	clockFlds   = regexp.MustCompile(`"(start_time|uptime_seconds)": [0-9.e+-]+`)
	campaignFld = regexp.MustCompile(`"campaign": \{[^{}]*\}`)
)

// TestGolden locks the /schedule JSON representation across all three
// pipeline stages, plus the /stats counters after exactly that request
// sequence (three misses, zero hits — then one hit from the repeated
// minpower request). Regenerate with `go test ./internal/web -update`.
func TestGolden(t *testing.T) {
	s := NewServer(sched.Options{})
	s.Add(paperex.Nine())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		golden string
		path   string
	}{
		{"schedule-timing.json", "/schedule?problem=nine-task-example&stage=timing&format=json"},
		{"schedule-maxpower.json", "/schedule?problem=nine-task-example&stage=maxpower&format=json"},
		{"schedule-minpower.json", "/schedule?problem=nine-task-example&stage=minpower&format=json"},
		// Repeat the default stage: must serve from the cache and show
		// up as the single hit in the stats golden below.
		{"schedule-minpower.json", "/schedule?problem=nine-task-example&format=json"},
		{"stats.json", "/stats"},
	}
	for _, tc := range cases {
		code, body, _ := get(t, ts.URL+tc.path)
		if code != 200 {
			t.Fatalf("%s: status %d: %s", tc.path, code, body)
		}
		got := computeNS.ReplaceAllString(body, `"compute_ns": {}`)
		got = clockFlds.ReplaceAllString(got, `"$1": 0`)
		got = campaignFld.ReplaceAllString(got, `"campaign": {}`)
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run `go test ./internal/web -update`)", tc.path, err)
		}
		if got != string(want) {
			t.Errorf("%s: response differs from %s:\ngot:\n%s\nwant:\n%s", tc.path, path, got, want)
		}
	}
}

// TestStatsUnchangedByPublish: exporting the service at /debug/vars,
// as cmd/serve does, leaves the /stats document as it was; compute_ns
// in particular gains no zero-valued stage buckets.
func TestStatsUnchangedByPublish(t *testing.T) {
	svc := service.New(service.Config{})
	s := NewServerWith(sched.Options{}, svc)
	s.Add(paperex.Nine())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if code, body, _ := get(t, ts.URL+"/schedule?problem=nine-task-example&stage=timing"); code != 200 {
		t.Fatalf("schedule: status %d: %s", code, body)
	}
	stats := func() string {
		code, body, _ := get(t, ts.URL+"/stats")
		if code != 200 {
			t.Fatalf("/stats: status %d: %s", code, body)
		}
		return campaignFld.ReplaceAllString(clockFlds.ReplaceAllString(body, `"$1": 0`), `"campaign": {}`)
	}
	before := stats()
	if !svc.Publish(fmt.Sprintf("web_test_stats_%p", svc)) {
		t.Fatal("publish failed")
	}
	if after := stats(); after != before {
		t.Errorf("/stats changed by Publish:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
