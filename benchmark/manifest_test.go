package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// manifest is BENCHMARK.json, the benchmark's declaration at the root of
// the repository.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program's
// tables in step: the same workloads, metrics, units, directions and
// bounds, and the run length the command line defaults to.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || len(m.Command) == 0 {
		t.Errorf("command %q, paths %q", m.Command, m.Paths)
	}
	var ws [][2]string
	for _, w := range m.Workloads {
		ws = append(ws, [2]string{w.Name, w.Why})
	}
	var want [][2]string
	for _, w := range workloads {
		want = append(want, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("workloads\n got %q\nwant %q", ws, want)
	}
	var e2e []metricDef
	for _, x := range m.EndToEnd {
		e2e = append(e2e, metricDef{x.Name, x.Unit, x.Better, x.Bound})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end\n got %v\nwant %v", e2e, endToEnd)
	}
	var layer []metricDef
	for _, x := range m.PerLayer {
		layer = append(layer, metricDef{name: x.Name, unit: x.Unit, better: x.Better})
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer\n got %v\nwant %v", layer, perLayer)
	}
}
