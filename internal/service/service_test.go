package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/obs"
)

// testServer boots the full HTTP stack over a fresh queue + engine. The
// engine's generator sleeps for scales above blockerScale, giving tests
// a way to pin workers on deliberately slow jobs.
func testServer(t *testing.T, queueWorkers int) (*httptest.Server, *Queue) {
	t.Helper()
	eng := &explore.Engine{
		Workers:   2,
		SimTrials: 1,
		CacheDir:  t.TempDir(),
		// The bus is attached in every service test so the whole event
		// path — stage spans, job lifecycle, metrics folding — runs
		// under -race alongside the queue.
		Obs: obs.NewBus(obs.NewMetrics(obs.NewRegistry())),
		Source: func(n int) *ir.Program {
			if n > blockerScale {
				time.Sleep(500 * time.Millisecond)
				n = 4
			}
			return ild.Program(n)
		},
	}
	q := NewQueue(eng, queueWorkers, 0)
	srv := httptest.NewServer(NewServer(q))
	t.Cleanup(srv.Close)
	return srv, q
}

// blockerScale marks generator scales that sleep before producing a
// (small) program: a submit at scale blockerScale+i reliably occupies a
// queue worker long enough for the test to race other submits past it.
const blockerScale = 100

func httpJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func submit(t *testing.T, base string, req Request) JobView {
	t.Helper()
	v, err := trySubmit(base, req)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// trySubmit is submit without the testing.T, safe off the test
// goroutine.
func trySubmit(base string, req Request) (JobView, error) {
	var v JobView
	data, err := json.Marshal(req)
	if err != nil {
		return v, err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return v, fmt.Errorf("submit %+v: HTTP %d", req, resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

func poll(t *testing.T, base, id string) JobView {
	t.Helper()
	var v JobView
	if code := httpJSON(t, "GET", base+"/v1/jobs/"+id, nil, &v); code != http.StatusOK {
		t.Fatalf("poll %s: HTTP %d", id, code)
	}
	return v
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := poll(t, base, id)
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v (status %s)", id, timeout, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentJobsOverSharedEngine is the service acceptance test: ≥ 8
// overlapping jobs from concurrent clients over ONE engine, including
// two identical submits (single-flighted), two byte-different renderings
// of the same source program (coalesced by content fingerprint), and one
// long search cancelled mid-run. Afterwards /v1/stats must report the
// dedup and the cross-job frontend cache hits. Run under -race.
func TestConcurrentJobsOverSharedEngine(t *testing.T) {
	srv, _ := testServer(t, 4)
	base := srv.URL

	// Two byte-different renderings of one program: same fingerprint.
	srcA := "uint8 a;\nuint8 b;\nuint8 out;\nvoid main() {\n  uint8 s;\n  s = a + b;\n  if (s < a) { s = 255; }\n  out = s;\n}\n"
	srcB := "uint8 a; uint8 b; uint8 out;\nvoid main() { uint8 s; s = a + b; if (s < a) { s = 255; } out = s; }"

	// The cancel target: a hill climb with a budget far beyond what the
	// test waits for, at a scale slow enough to be caught mid-run.
	cancelReq := Request{Kind: KindSearch, N: 16, Strategy: "hill", Budget: 100000, Seed: 7}

	// Pin every worker on a slow blocker job first: the dedup pairs
	// below then sit queued — still in flight — when their duplicates
	// arrive, making the single-flight assertion deterministic instead
	// of a race against millisecond-scale synthesis.
	var blockers []JobView
	for i := 0; i < 4; i++ {
		blockers = append(blockers, submit(t, base, Request{Kind: KindSynth, N: blockerScale + 1 + i}))
	}

	sweepReq := Request{Kind: KindSweep, Sizes: []int{4}, MaxUnrolls: []int{0, 8}, Classical: true}
	sweepJob := submit(t, base, sweepReq)
	sweepDup := submit(t, base, sweepReq) // identical: must single-flight
	if sweepJob.ID != sweepDup.ID || !sweepDup.Deduped {
		t.Errorf("identical sweep submits: got jobs %s and %s (deduped=%t), want one single-flighted job",
			sweepJob.ID, sweepDup.ID, sweepDup.Deduped)
	}
	srcJob := submit(t, base, Request{Kind: KindSweep, Source: srcA, Classical: true})
	srcDup := submit(t, base, Request{Kind: KindSweep, Source: srcB, Classical: true}) // same program: must single-flight
	if srcJob.ID != srcDup.ID || !srcDup.Deduped {
		t.Errorf("same-fingerprint source submits: got jobs %s and %s (deduped=%t), want one single-flighted job",
			srcJob.ID, srcDup.ID, srcDup.Deduped)
	}

	// The rest of the wave overlaps the in-flight pairs: concurrent
	// submits from concurrent clients. (Failures travel back to the test
	// goroutine; t.Fatalf is not goroutine-safe.)
	wave := []Request{
		{Kind: KindSynth, N: 4},
		{Kind: KindSynth, N: 8},
		{Kind: KindSearch, N: 4, Strategy: "hill", Budget: 6, Seed: 1},
		{Kind: KindSearch, N: 4, Strategy: "genetic", Budget: 6, Seed: 2},
		cancelReq,
	}
	views := make([]JobView, len(wave))
	errs := make(chan error, len(wave))
	for i := range wave {
		go func(i int) {
			v, err := trySubmit(base, wave[i])
			views[i] = v
			errs <- err
		}(i)
	}
	for range wave {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	cancelIdx := len(wave) - 1

	// Cancel the long search once it is actually running (cancelling a
	// queued job would not exercise mid-run cancellation).
	cancelID := views[cancelIdx].ID
	waitRunning := time.Now().Add(60 * time.Second)
	for {
		v := poll(t, base, cancelID)
		if v.Status == StatusRunning {
			break
		}
		if v.Status.Terminal() {
			t.Fatalf("cancel target %s finished (%s) before it could be cancelled", cancelID, v.Status)
		}
		if time.Now().After(waitRunning) {
			t.Fatalf("cancel target %s never started running", cancelID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := httpJSON(t, "DELETE", base+"/v1/jobs/"+cancelID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel %s: HTTP %d", cancelID, code)
	}

	// Everything must reach a terminal state — including the cancelled
	// search, which would otherwise run its 100000-evaluation budget for
	// far longer than this timeout: reaching it at all IS the
	// within-one-batch cancellation working.
	finished := []JobView{
		waitTerminal(t, base, sweepJob.ID, 120*time.Second),
		waitTerminal(t, base, srcJob.ID, 120*time.Second),
	}
	for _, b := range blockers {
		finished = append(finished, waitTerminal(t, base, b.ID, 120*time.Second))
	}
	for i := range wave {
		v := waitTerminal(t, base, views[i].ID, 120*time.Second)
		if i == cancelIdx {
			if v.Status != StatusCanceled {
				t.Errorf("cancel target %s: status %s, want %s", v.ID, v.Status, StatusCanceled)
			}
			if v.Result != nil && v.Result.Search != nil {
				if !v.Result.Search.Canceled {
					t.Errorf("cancelled search result not flagged canceled")
				}
				if v.Result.Search.Evaluations >= cancelReq.Budget {
					t.Errorf("cancelled search ran its whole %d-evaluation budget", cancelReq.Budget)
				}
			}
			continue
		}
		finished = append(finished, v)
	}
	for _, v := range finished {
		if v.Status != StatusDone {
			t.Errorf("job %s (%s): status %s (%s), want done", v.ID, v.Kind, v.Status, v.Error)
		}
		if v.Status == StatusDone && v.Result == nil {
			t.Errorf("job %s done without result", v.ID)
		}
	}
	if v := finished[0]; v.Status == StatusDone && v.Result != nil {
		if len(v.Result.Points) == 0 || len(v.Result.Frontier) == 0 {
			t.Errorf("sweep job %s: %d points, %d frontier (want both non-empty)",
				v.ID, len(v.Result.Points), len(v.Result.Frontier))
		}
		if v.Coalesced != 1 {
			t.Errorf("sweep job coalesced %d submits, want 1", v.Coalesced)
		}
	}

	// The second identical submit of a *completed* job is not coalesced
	// — it re-runs — but must be served by the shared caches: /v1/stats
	// afterwards shows frontend (and point) hits for it.
	var before StatsView
	httpJSON(t, "GET", base+"/v1/stats", nil, &before)
	rerun := submit(t, base, Request{Kind: KindSynth, N: 4})
	if rerun.ID == views[0].ID || rerun.Deduped {
		t.Fatalf("re-submit after completion unexpectedly coalesced onto finished job %s", rerun.ID)
	}
	if v := waitTerminal(t, base, rerun.ID, 60*time.Second); v.Status != StatusDone {
		t.Fatalf("re-submitted job %s: status %s (%s)", v.ID, v.Status, v.Error)
	}
	var stats StatsView
	httpJSON(t, "GET", base+"/v1/stats", nil, &stats)
	if hits := stats.Engine.PointMemHits - before.Engine.PointMemHits; hits < 1 {
		t.Errorf("second identical submit: point mem hits %d, want >= 1", hits)
	}
	if stats.Engine.FrontendMemHits == 0 {
		t.Errorf("no cross-job frontend cache hits after %d submits over one engine", stats.Queue.Submitted)
	}
	if stats.Queue.Coalesced < 2 {
		t.Errorf("queue coalesced %d submits, want >= 2", stats.Queue.Coalesced)
	}
	if stats.Queue.Canceled != 1 {
		t.Errorf("queue canceled count %d, want 1", stats.Queue.Canceled)
	}
	if stats.CacheSchema != explore.DiskSchema() {
		t.Errorf("stats cache schema %q, want %q", stats.CacheSchema, explore.DiskSchema())
	}
	if stats.StageVersions != explore.Versions() {
		t.Errorf("stats stage versions %+v, want %+v", stats.StageVersions, explore.Versions())
	}
}

// TestSourceRefRoundTrip submits a source inline, then re-references it
// by fingerprint: the ref submit must resolve to the same engine source
// and coalesce with an identical in-flight inline submit.
func TestSourceRefRoundTrip(t *testing.T) {
	srv, _ := testServer(t, 2)
	base := srv.URL
	src := "uint8 x;\nuint8 y;\nuint8 out;\nvoid main() {\n  uint8 d;\n  if (x > y) { d = x - y; } else { d = y - x; }\n  out = d;\n}\n"

	first := submit(t, base, Request{Kind: KindSynth, Source: src})
	v := waitTerminal(t, base, first.ID, 60*time.Second)
	if v.Status != StatusDone {
		t.Fatalf("inline job: %s (%s)", v.Status, v.Error)
	}
	fp := v.Result.SourceFingerprint
	if fp == "" {
		t.Fatalf("done job carries no source fingerprint")
	}

	ref := submit(t, base, Request{Kind: KindSynth, SourceRef: fp})
	rv := waitTerminal(t, base, ref.ID, 60*time.Second)
	if rv.Status != StatusDone {
		t.Fatalf("ref job: %s (%s)", rv.Status, rv.Error)
	}
	if rv.Result.SourceFingerprint != fp {
		t.Errorf("ref job fingerprint %q, want %q", rv.Result.SourceFingerprint, fp)
	}
	// Inline and ref jobs are the same request once resolved: same key.
	if ref.Key != first.Key {
		t.Errorf("inline key %q != ref key %q: dedup would miss", first.Key, ref.Key)
	}

	var missing struct {
		Error string `json:"error"`
	}
	code := httpJSON(t, "POST", base+"/v1/jobs", Request{Kind: KindSynth, SourceRef: "nope"}, &missing)
	if code != http.StatusBadRequest || !strings.Contains(missing.Error, "source_ref") {
		t.Errorf("unknown source_ref: HTTP %d %q, want 400 mentioning source_ref", code, missing.Error)
	}
}

// TestSubmitValidation exercises the request codec's failure paths.
func TestSubmitValidation(t *testing.T) {
	srv, _ := testServer(t, 1)
	base := srv.URL
	bad := []Request{
		{},                                      // missing kind
		{Kind: "mystery"},                       // unknown kind
		{Kind: KindSynth, N: -1},                // bad scale
		{Kind: KindSearch, Strategy: "tabu"},    // unknown strategy
		{Kind: KindSearch, Objective: "beauty"}, // unknown objective
		{Kind: KindSweep, Sizes: []int{0}},      // bad sweep size
		{Kind: KindSynth, Source: "uint8 a; void main("},                     // parse error
		{Kind: KindSynth, Source: "uint8 a; void main() {}", SourceRef: "x"}, // both
	}
	for _, req := range bad {
		if code := httpJSON(t, "POST", base+"/v1/jobs", req, nil); code != http.StatusBadRequest {
			t.Errorf("submit %+v: HTTP %d, want 400", req, code)
		}
	}
	if code := httpJSON(t, "GET", base+"/v1/jobs/j999", nil, nil); code != http.StatusNotFound {
		t.Errorf("get unknown job: HTTP %d, want 404", code)
	}
	if code := httpJSON(t, "DELETE", base+"/v1/jobs/j999", nil, nil); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: HTTP %d, want 404", code)
	}
	var health struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		GoVersion     string  `json:"go_version"`
	}
	if code := httpJSON(t, "GET", base+"/healthz", nil, &health); code != http.StatusOK {
		t.Errorf("healthz: HTTP %d", code)
	}
	if health.Status != "ok" || health.UptimeSeconds < 0 || health.GoVersion == "" {
		t.Errorf("healthz payload: %+v", health)
	}
}

// TestSubmitBodyLimit pins the POST /v1/jobs size bound: a body over
// MaxSubmitBytes — an oversized inline source, or a valid request with
// an oversized tail — gets 413 with the JSON error body, and nothing is
// enqueued; a request just under the bound still gets past the reader.
func TestSubmitBodyLimit(t *testing.T) {
	srv, q := testServer(t, 1)
	huge, err := json.Marshal(Request{Kind: KindSynth, Source: strings.Repeat(" ", MaxSubmitBytes)})
	if err != nil {
		t.Fatal(err)
	}
	tail := append([]byte(`{"kind":"synth","n":4}`), bytes.Repeat([]byte(" "), MaxSubmitBytes)...)
	for name, body := range map[string][]byte{"source": huge, "tail": tail} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		decErr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: HTTP %d, want 413", name, resp.StatusCode)
		}
		if decErr != nil || eb.Error == "" {
			t.Errorf("%s: error body %+v (decode: %v), want a JSON error", name, eb, decErr)
		}
	}
	if jobs := q.List(); len(jobs) != 0 {
		t.Fatalf("oversized submits enqueued %d jobs", len(jobs))
	}
	// Under the bound the body reaches validation: n = -1 is refused
	// with 400, not with a size error.
	fits := append([]byte(`{"kind":"synth","n":-1}`), bytes.Repeat([]byte(" "), MaxSubmitBytes/2)...)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(fits))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("in-bound invalid submit: HTTP %d, want 400", resp.StatusCode)
	}
}
