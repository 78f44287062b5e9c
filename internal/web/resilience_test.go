package web

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/paperex"
	"repro/internal/sched"
	"repro/internal/service"
)

// jsonError decodes the {"error": "..."} contract every error response
// must follow.
func jsonError(t *testing.T, body string) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body is not the JSON contract: %q (%v)", body, err)
	}
	if e.Error == "" {
		t.Fatalf("error body has empty error field: %q", body)
	}
	return e.Error
}

// TestWebOverloadedMapsTo429 saturates a one-worker, zero-queue service
// and asserts the shed request answers 429 with Retry-After and a JSON
// body.
func TestWebOverloadedMapsTo429(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, MaxQueue: -1})
	s := NewServerWith(sched.Options{}, svc)
	s.Add(paperex.Nine())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// A hog problem's compute parks in the hook, holding the one worker.
	hog := paperex.Nine()
	hog.Name = "hog"
	hogKey := service.Key(hog, sched.Options{}, service.StageTiming)
	release := make(chan struct{})
	started := make(chan struct{})
	restore := service.TestingSetComputeHook(func(ctx context.Context, key string) {
		if key != hogKey {
			return
		}
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
	})
	t.Cleanup(restore)
	blocked := make(chan error, 1)
	go func() {
		_, err := svc.ScheduleCtx(context.Background(), hog, sched.Options{}, service.StageTiming)
		blocked <- err
	}()
	<-started

	resp, err := http.Get(ts.URL + "/schedule?problem=nine-task-example")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	jsonError(t, body)

	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	// Capacity restored: the same request now succeeds.
	resp, err = http.Get(ts.URL + "/schedule?problem=nine-task-example")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status = %d, body %q", resp.StatusCode, body)
	}
}

// TestWebPanicMapsTo500AndServerSurvives injects a compute panic via
// the service test hook: the response is a generic 500 JSON error (no
// stack), and the very next request succeeds.
func TestWebPanicMapsTo500AndServerSurvives(t *testing.T) {
	svc := service.New(service.Config{})
	s := NewServerWith(sched.Options{}, svc)
	s.Add(paperex.Nine())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	restore := service.TestingSetComputeHook(func(context.Context, string) { panic("web-chaos-panic") })
	resp, err := http.Get(ts.URL + "/schedule?problem=nine-task-example")
	restore()
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %q", resp.StatusCode, body)
	}
	if msg := jsonError(t, body); strings.Contains(msg, "web-chaos-panic") || strings.Contains(body, "goroutine") {
		t.Errorf("panic detail leaked into the response: %q", body)
	}
	if st := svc.Stats(); st.Panics != 1 {
		t.Errorf("panics = %d, want 1", st.Panics)
	}
	// The panic was contained; the server keeps serving.
	resp, err = http.Get(ts.URL + "/schedule?problem=nine-task-example")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("after panic: status = %d, body %q", resp.StatusCode, body)
	}
}

// TestWebClientCancelFreesCompute cancels the client's request while
// the compute is parked, then proves the service counted the
// cancellation and an identical follow-up succeeds (nothing poisoned,
// no slot leaked).
func TestWebClientCancelFreesCompute(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	s := NewServerWith(sched.Options{}, svc)
	s.Add(paperex.Nine())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	inHook := make(chan struct{})
	restore := service.TestingSetComputeHook(func(context.Context, string) {
		close(inHook)
		time.Sleep(50 * time.Millisecond) // outlive the client's cancellation
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/schedule?problem=nine-task-example", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			t.Error("canceled request unexpectedly completed")
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled request error = %v", err)
		}
	}()
	<-inHook
	cancel()
	wg.Wait()
	restore()

	if err := svc.Drain(contextWithTimeout(t, 5*time.Second)); err != nil {
		t.Fatalf("service did not drain after client cancel: %v", err)
	}
	if st := svc.Stats(); st.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", st.Canceled)
	}
	// The worker slot is free again and the aborted run was not cached.
	resp, err := http.Get(ts.URL + "/schedule?problem=nine-task-example")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up after cancel: status = %d, body %q", resp.StatusCode, body)
	}
}

// TestWebSpecTooLargeMapsTo413: an oversized spec upload is rejected
// with 413 and the JSON error contract.
func TestWebSpecTooLargeMapsTo413(t *testing.T) {
	_, ts := testServer(t)
	line := "# padding line to push the spec past the byte bound\n"
	big := strings.NewReader(strings.Repeat(line, maxSpecBytes/len(line)+2))
	resp, err := http.Post(ts.URL+"/problems", "text/plain", big)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %q", resp.StatusCode, body)
	}
	jsonError(t, body)
}

// TestWebTooManyTasksMapsTo400: a spec over the task cap is rejected
// before any scheduling work happens.
func TestWebTooManyTasksMapsTo400(t *testing.T) {
	_, ts := testServer(t)
	var b strings.Builder
	b.WriteString("problem toomany\npmax 1000\n")
	for i := 0; i <= maxSpecTasks; i++ {
		fmt.Fprintf(&b, "task t%d r%d 1 1\n", i, i)
	}
	resp, err := http.Post(ts.URL+"/problems", "text/plain", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %q", resp.StatusCode, body)
	}
	if msg := jsonError(t, body); !strings.Contains(msg, "tasks") {
		t.Errorf("error %q does not mention the task cap", msg)
	}
}

// TestWebBadInputsAreJSON spot-checks that plain 4xx paths answer with
// the JSON error contract too.
func TestWebBadInputsAreJSON(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/schedule?problem=nope", http.StatusNotFound},
		{"/schedule?problem=nine-task-example&restarts=1000000", http.StatusBadRequest},
		{"/schedule?problem=nine-task-example&format=tiff", http.StatusBadRequest},
		{"/simulate?problem=nine-task-example&n=100000", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d; body %q", tc.url, resp.StatusCode, tc.want, body)
			continue
		}
		jsonError(t, body)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
