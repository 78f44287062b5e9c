package web

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestSimulateJSON(t *testing.T) {
	_, ts := testServer(t)
	code, body, hdr := get(t, ts.URL+"/simulate?problem=nine-task-example&n=5&seed=3")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "json") {
		t.Errorf("content type = %q", hdr.Get("Content-Type"))
	}
	var sum struct {
		Runs         int     `json:"runs"`
		Seed         int64   `json:"seed"`
		SurvivalRate float64 `json:"survival_rate"`
	}
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, body)
	}
	if sum.Runs != 5 || sum.Seed != 3 {
		t.Errorf("summary = %+v, want runs 5 seed 3", sum)
	}
	if sum.SurvivalRate < 0 || sum.SurvivalRate > 1 {
		t.Errorf("survival rate %g out of range", sum.SurvivalRate)
	}

	// Same query, same bytes: the endpoint is deterministic.
	_, again, _ := get(t, ts.URL+"/simulate?problem=nine-task-example&n=5&seed=3")
	if body != again {
		t.Errorf("repeated query differs:\n%s\nvs\n%s", body, again)
	}
}

func TestSimulateHTMLCard(t *testing.T) {
	_, ts := testServer(t)
	code, body, hdr := get(t, ts.URL+"/simulate?problem=nine-task-example&n=4&format=html")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "html") {
		t.Errorf("content type = %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{"sim-card", "survival", "reschedules", "battery energy"} {
		if !strings.Contains(body, want) {
			t.Errorf("card missing %q", want)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/simulate?problem=nope", http.StatusNotFound},
		{"/simulate?problem=nine-task-example&n=0", http.StatusBadRequest},
		{"/simulate?problem=nine-task-example&n=100000", http.StatusBadRequest},
		{"/simulate?problem=nine-task-example&seed=x", http.StatusBadRequest},
		{"/simulate?problem=nine-task-example&faults=bogus=1", http.StatusBadRequest},
		{"/simulate?problem=nine-task-example&faults=fail=1,retries=4000000000000000000", http.StatusBadRequest},
		{"/simulate?problem=nine-task-example&format=pdf", http.StatusBadRequest},
	} {
		if code, body, _ := get(t, ts.URL+tc.url); code != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", tc.url, code, tc.code, strings.TrimSpace(body))
		}
	}
}

func TestIndexLinksSimulate(t *testing.T) {
	_, ts := testServer(t)
	_, body, _ := get(t, ts.URL+"/")
	if !strings.Contains(body, "/simulate?problem=") {
		t.Error("index has no simulate links")
	}
}
