package main

import (
	"bufio"
	"bytes"
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

	"avgi"
)

func newTestServer(t *testing.T, journalDir string) (*httptest.Server, *avgi.Service) {
	t.Helper()
	obsv := avgi.NewObserver(io.Discard)
	svc, err := avgi.NewService(avgi.ServiceConfig{
		Workers:    4,
		JournalDir: journalDir,
		Obs:        obsv,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(svc, obsv, nil))
	t.Cleanup(ts.Close)
	return ts, svc
}

const assessBody = `{"structure":"RF","workload":"crc32","mode":"hvf","faults":16,"seed":7}`

// envelope mirrors avgi.AssessResponse with the result kept raw, so tests
// can compare the cache-independent payload byte-for-byte.
type envelope struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"result"`
	Meta   avgi.AssessMeta `json:"meta"`
}

func postAssess(t *testing.T, url, body string) (envelope, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/assess", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return env, resp.StatusCode
}

// TestServerSequentialHitByteIdentical is the tentpole e2e acceptance
// test over real HTTP: the second identical POST must be served from the
// journal with zero simulated faults, and its result payload must be
// byte-identical to the freshly simulated first response.
func TestServerSequentialHitByteIdentical(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir())
	first, code := postAssess(t, ts.URL, assessBody)
	if code != http.StatusOK {
		t.Fatalf("first POST: %d", code)
	}
	if first.Meta.JournalHit || first.Meta.SimulatedFaults != 16 {
		t.Fatalf("first response meta %+v, want a 16-fault fresh simulation", first.Meta)
	}
	second, code := postAssess(t, ts.URL, assessBody)
	if code != http.StatusOK {
		t.Fatalf("second POST: %d", code)
	}
	if !second.Meta.JournalHit || second.Meta.SimulatedFaults != 0 {
		t.Errorf("second response meta %+v, want a zero-simulation journal hit", second.Meta)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cache-hit result bytes diverge from fresh simulation:\n first: %s\nsecond: %s",
			first.Result, second.Result)
	}
}

// TestServerConcurrentRequestsCoalesce fires identical requests
// concurrently over HTTP at an uncached server: at least one must report
// coalescing onto another's execution, and every result must be
// byte-identical.
func TestServerConcurrentRequestsCoalesce(t *testing.T) {
	ts, svc := newTestServer(t, "")
	const n = 4
	envs := make([]envelope, n)
	codes := make([]int, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			envs[i], codes[i] = postAssess(t, ts.URL, assessBody)
		}(i)
	}
	close(start)
	wg.Wait()

	coalesced := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if envs[i].Meta.Coalesced {
			coalesced++
		}
		if !bytes.Equal(envs[0].Result, envs[i].Result) {
			t.Errorf("request %d result diverges", i)
		}
	}
	if coalesced == 0 {
		t.Error("no concurrent request coalesced: single-flight not engaged over HTTP")
	}
	if svc.Budget().InUse() != 0 {
		t.Errorf("worker budget not drained: %d", svc.Budget().InUse())
	}
}

func TestServerValidationErrorsAreJSON(t *testing.T) {
	ts, _ := newTestServer(t, "")
	for _, body := range []string{
		`{"structure":"RF","workload":"crc32","mode":"bogus"}`,
		`{"structure":"NOPE","workload":"crc32","mode":"hvf"}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/assess", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
		var je struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &je); err != nil || je.Error == "" {
			t.Errorf("POST %s: body %q is not a JSON error", body, raw)
		}
	}
}

func TestServerRequestRegistryAndTelemetry(t *testing.T) {
	ts, _ := newTestServer(t, "")
	env, code := postAssess(t, ts.URL, assessBody)
	if code != http.StatusOK {
		t.Fatal(code)
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", ts.URL, env.ID))
	if err != nil {
		t.Fatal(err)
	}
	var info avgi.RequestInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.State != avgi.StateDone {
		t.Errorf("request %d state %q, want done", env.ID, info.State)
	}

	if resp, err = http.Get(ts.URL + "/v1/requests/999999"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown request id: status %d, want 404", resp.StatusCode)
	}

	// The observer's telemetry shares the mux: server metrics are visible
	// on the same port as the API.
	if resp, err = http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "avgi_server_requests_total") {
		t.Errorf("/metrics (status %d) does not expose avgi_server_requests_total", resp.StatusCode)
	}
}

// TestServerWatchStreams drives one assessment while a watcher tails its
// /watch stream; the stream must end with a terminal-state frame.
func TestServerWatchStreams(t *testing.T) {
	ts, svc := newTestServer(t, "")
	done := make(chan envelope, 1)
	go func() {
		env, _ := postAssess(t, ts.URL, `{"structure":"RF","workload":"sha","mode":"exhaustive","faults":24}`)
		done <- env
	}()

	// Find the request's ID via the registry once it is registered.
	var id uint64
	deadline := time.Now().Add(10 * time.Second)
	for id == 0 && time.Now().Before(deadline) {
		if reqs := svc.Requests(); len(reqs) > 0 {
			id = reqs[0].ID
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if id == 0 {
		t.Fatal("request never appeared in the registry")
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d/watch", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("watch Content-Type %q", ct)
	}
	var last watchFrame
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("frame %d: %v (%s)", frames, err, sc.Bytes())
		}
		frames++
	}
	if frames == 0 {
		t.Fatal("watch stream delivered no frames")
	}
	if last.State != avgi.StateDone {
		t.Errorf("final frame state %q, want done", last.State)
	}
	if last.ID != id {
		t.Errorf("final frame id %d, want %d", last.ID, id)
	}
	<-done
}

func TestRecoverJSONTurnsPanicInto500(t *testing.T) {
	h := recoverJSON(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(errors.New("campaign invariant violated"))
	}), nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/assess", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	var je struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &je); err != nil || !strings.Contains(je.Error, "campaign invariant") {
		t.Errorf("panic body %q is not the JSON error", rr.Body.String())
	}
}

// TestServerOversizedBodyIs413 pins the /v1/assess body bound: a body
// past maxAssessBody is refused with 413 and the uniform JSON error, and a
// body just under it still reaches validation (400 for an unknown
// workload).
func TestServerOversizedBodyIs413(t *testing.T) {
	ts, _ := newTestServer(t, "")
	for _, tc := range []struct {
		size    int
		want    int
		decoded bool
	}{
		{maxAssessBody + 1, http.StatusRequestEntityTooLarge, false},
		{maxAssessBody - 64, http.StatusBadRequest, true},
	} {
		prefix := `{"structure":"RF","mode":"hvf","workload":"`
		body := prefix + strings.Repeat("a", tc.size-len(prefix)-2) + `"}`
		resp, err := http.Post(ts.URL+"/v1/assess", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body: status %d, want %d", len(body), resp.StatusCode, tc.want)
		}
		var je struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &je); err != nil || je.Error == "" {
			t.Errorf("%d-byte body: response %.200q is not a JSON error", len(body), raw)
		}
		if decoded := !strings.HasPrefix(je.Error, "decoding request"); decoded != tc.decoded {
			t.Errorf("%d-byte body: decoded=%v, want %v (error %.200q)", len(body), decoded, tc.decoded, je.Error)
		}
	}
}
