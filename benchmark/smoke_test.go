package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, for a fraction of
// a second on tiny inputs and rates, so that a change to a layer's API
// or behaviour that breaks the benchmark shows in go test.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				e := &env{seed: 3, window: 400 * time.Millisecond, small: true, dir: t.TempDir(), out: &out}
				if traced {
					e.rec = newRecorder()
				}
				o, err := w.run(context.Background(), e)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				res := finish(e, o)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case v.Unit != m.unit:
						t.Errorf("metric %s: unit %q, want %q", m.name, v.Unit, m.unit)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %g, want > 0", m.name, v.Value)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
				if !traced {
					return
				}
				if res.Metrics["trace.overhead"].Value <= 0 || res.Metrics["verify.check_us"].Value <= 0 {
					t.Errorf("trace.overhead or verify.check_us not measured: %+v", res.Metrics)
				}
				path := filepath.Join(t.TempDir(), "spans.json")
				if err := e.rec.write(path, map[string]any{"workload": w.name}); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct{ Spans []span }
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
					t.Fatalf("span file: %d spans, err %v", len(doc.Spans), err)
				}
			})
		}
	}
}
