package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/obs"
	"sparkgo/internal/service"
)

// daemonClients is the number of closed-loop clients: each submits its
// next job only after the previous one reached a terminal status. The
// daemon runs one job worker per client.
const daemonClients = 2

// daemonSubmits is how often each synth configuration is submitted per
// pass. The first submit of a configuration computes it; the repeat
// coalesces with it while it is in flight or hits the point cache after.
// Nothing in the repository records how often sparkd or CI resubmit a
// configuration, so the repeat share (8 of a pass's 21 jobs) is an
// assumption. The two kinds of job are timed apart: the latency metrics
// cover first submits, and the report prints the repeats' latency and
// how many of them coalesced.
const daemonSubmits = 2

// daemonPasses is how many passes a run makes. A fixed count, with the
// run's length only as a cap, keeps the sample ranks the latency
// metrics read on the same job classes whatever the daemon's speed.
const daemonPasses = 22

var (
	daemonSizes   = []int{8, 16, 32, 64}
	daemonPresets = []string{"microprocessor-block", "classical-asic"}
)

// daemonPlan deals one pass's job mix to the clients: a synth job for
// every (size, preset) pair, each submitted daemonSubmits times, a
// hill-climbing and a genetic search with budget 16, and three small
// sweeps. The searches and sweeps run at sizes no synth job uses, so no
// first submit is served by a point an earlier search or sweep
// computed, whatever the order. The mix, search seeds included, is the
// same every pass, so the workload seed moves only the order and which
// client submits what. Each client gets half the synth jobs, one search
// and one sweep (the third sweep goes to either), so both carry about
// the same load and neither idles long while the other finishes the
// pass.
func daemonPlan(rng *rand.Rand) [][]service.Request {
	var synth []service.Request
	for range daemonSubmits {
		for _, n := range daemonSizes {
			for _, p := range daemonPresets {
				synth = append(synth, service.Request{Kind: service.KindSynth, N: n, Preset: p})
			}
		}
	}
	rng.Shuffle(len(synth), func(i, j int) { synth[i], synth[j] = synth[j], synth[i] })
	searches := []service.Request{
		{Kind: service.KindSearch, Strategy: "hill", N: 12, Budget: 16, Seed: 1},
		{Kind: service.KindSearch, Strategy: "genetic", N: 12, Budget: 16, Seed: 1},
	}
	sweeps := []service.Request{
		{Kind: service.KindSweep, Sizes: []int{4}, MaxUnrolls: []int{0, 8}, Classical: true},
		{Kind: service.KindSweep, Sizes: []int{6, 10}, MaxUnrolls: []int{0}, Classical: true},
	}
	rng.Shuffle(len(searches), func(i, j int) { searches[i], searches[j] = searches[j], searches[i] })
	rng.Shuffle(len(sweeps), func(i, j int) { sweeps[i], sweeps[j] = sweeps[j], sweeps[i] })
	plan := make([][]service.Request, daemonClients)
	for i, j := range synth {
		plan[i%daemonClients] = append(plan[i%daemonClients], j)
	}
	insert := func(c int, j service.Request) {
		at := rng.Intn(len(plan[c]) + 1)
		plan[c] = append(plan[c][:at], append([]service.Request{j}, plan[c][at:]...)...)
	}
	for c := range plan {
		insert(c, searches[c])
		insert(c, sweeps[c])
	}
	// A third, tiny sweep makes a pass's first submits an odd 13, so
	// their median falls inside one job class. With an even count it
	// fell between two classes and read the extreme sample of one of
	// them, moving by a fifth between runs.
	insert(rng.Intn(daemonClients), service.Request{Kind: service.KindSweep, Sizes: []int{5}, MaxUnrolls: []int{0}, Classical: true})
	return plan
}

// synthKey names a (size, preset) synth configuration.
func synthKey(n int, preset string) string { return fmt.Sprintf("n=%d %s", n, preset) }

// daemonRefs synthesizes every synth configuration of the mix directly
// with core.Synthesize: the reference the daemon's results must match.
func daemonRefs() (map[string]explore.Point, error) {
	refs := map[string]explore.Point{}
	for _, n := range daemonSizes {
		prog := ild.Program(n)
		for _, p := range daemonPresets {
			c := explore.Config{N: n, Preset: core.MicroprocessorBlock}
			if p == "classical-asic" {
				c.Preset = core.ClassicalASIC
			}
			res, err := core.Synthesize(prog, c.Options())
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", synthKey(n, p), err)
			}
			refs[synthKey(n, p)] = explore.Point{Cycles: res.Cycles, Area: res.Stats.Area,
				CritPath: res.Stats.CriticalPath, Muxes: res.Stats.Muxes, FUs: res.Stats.FUs}
		}
	}
	return refs, nil
}

// daemon is an in-process sparkd: a queue and its HTTP front end on a
// loopback listener, over an engine with a disk cache.
type daemon struct {
	eng   *explore.Engine
	queue *service.Queue
	srv   *http.Server
	url   string
	done  chan error
}

func bootDaemon(cacheDir string, client *http.Client) (*daemon, error) {
	eng := &explore.Engine{Workers: localWorkers(), SimTrials: 1, CacheDir: cacheDir}
	eng.Obs = obs.NewBus(obs.NewMetrics(obs.NewRegistry()))
	q := service.NewQueue(eng, daemonClients, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		q.Drain(context.Background())
		return nil, err
	}
	d := &daemon{eng: eng, queue: q, url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		srv: &http.Server{Handler: service.NewServer(q), ReadHeaderTimeout: 10 * time.Second}}
	go func() { d.done <- d.srv.Serve(ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the queue, shuts the server down and waits for it.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	derr := d.queue.Drain(ctx)
	serr := d.srv.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(derr, serr)
}

// jobRun is one submitted job as its client saw it.
type jobRun struct {
	req     service.Request
	view    service.JobView
	deduped bool
	submit  time.Time
	latency time.Duration
	err     error
}

// runJob submits a request, follows the job's event stream to its
// terminal event, and then fetches the result; latency runs from submit
// to the terminal event.
func runJob(client *http.Client, url string, req service.Request) jobRun {
	r := jobRun{req: req, submit: time.Now()}
	body, err := json.Marshal(req)
	if err != nil {
		r.err = err
		return r
	}
	var sub service.JobView
	if r.err = doJSON(client, http.MethodPost, url+"/v1/jobs", body, &sub); r.err != nil {
		return r
	}
	r.deduped = sub.Deduped
	if r.err = waitTerminal(client, url+"/v1/jobs/"+sub.ID+"/events"); r.err != nil {
		return r
	}
	r.latency = time.Since(r.submit)
	r.err = doJSON(client, http.MethodGet, url+"/v1/jobs/"+sub.ID, nil, &r.view)
	return r
}

func doJSON(client *http.Client, method, url string, body []byte, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitTerminal reads a job's SSE stream until its terminal job event.
func waitTerminal(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if ev.Type == obs.TypeJob && service.Status(ev.Op).Terminal() {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events: stream ended before the terminal event")
}

// passResult is one daemon pass as the clients saw it.
type passResult struct {
	runs  []jobRun
	timed time.Duration // first submit to last terminal event
	stats explore.Stats // the pass's engine accounting (its engine is fresh)
}

// runPass boots a fresh daemon on an empty cache in a new directory
// under dir, runs one plan through the closed-loop clients, and stops
// the daemon. Pass caches are left on disk until the run's directory is
// removed at exit, so no pass waits on deleting the last one's files.
// attach, when non-nil, receives the daemon's obs bus before the first
// submit.
func runPass(dir string, plan [][]service.Request, client *http.Client, attach func(*obs.Bus)) (passResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return passResult{}, err
	}
	cacheDir, err := os.MkdirTemp(dir, "pass-")
	if err != nil {
		return passResult{}, err
	}
	d, err := bootDaemon(cacheDir, client)
	if err != nil {
		return passResult{}, err
	}
	if attach != nil {
		attach(d.eng.Obs)
	}
	runs := make([][]jobRun, len(plan))
	start := time.Now()
	var wg sync.WaitGroup
	for c, jobs := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, req := range jobs {
				runs[c] = append(runs[c], runJob(client, d.url, req))
			}
		}()
	}
	wg.Wait()
	res := passResult{timed: time.Since(start), stats: d.eng.Stats()}
	if err := d.stop(); err != nil {
		return passResult{}, err
	}
	for _, r := range runs {
		res.runs = append(res.runs, r...)
	}
	return res, nil
}

// checkJob is daemon-mix's correctness gate for one job: it must finish
// done, a synth result must match the direct synthesis of its config,
// a sweep must return every point without error, and a search must
// report a best design.
func checkJob(r jobRun, refs map[string]explore.Point) string {
	if r.err != nil {
		return r.err.Error()
	}
	v := r.view
	if v.Status != service.StatusDone {
		return fmt.Sprintf("status %s: %s", v.Status, v.Error)
	}
	if v.Result == nil {
		return "no result"
	}
	switch r.req.Kind {
	case service.KindSynth:
		if len(v.Result.Points) != 1 {
			return fmt.Sprintf("%d points, want 1", len(v.Result.Points))
		}
		p := v.Result.Points[0]
		got := explore.Point{Cycles: p.Cycles, Area: p.Area, CritPath: p.CritPath, Muxes: p.Muxes, FUs: p.FUs, Err: p.Err}
		return samePoint(got, refs[synthKey(r.req.N, r.req.Preset)])
	case service.KindSweep:
		want := len(r.req.Sizes) * (len(explore.Variants())*len(r.req.MaxUnrolls) + 1)
		if len(v.Result.Points) != want {
			return fmt.Sprintf("sweep: %d points, want %d", len(v.Result.Points), want)
		}
		for _, p := range v.Result.Points {
			if p.Err != "" {
				return "sweep point " + p.Config + ": " + p.Err
			}
		}
	case service.KindSearch:
		if v.Result.Search == nil || v.Result.Search.Best == nil {
			return "search: no best design"
		}
	}
	return ""
}

func runDaemonMix(opt options) (*outcome, error) {
	out := &outcome{}
	client := &http.Client{Timeout: 120 * time.Second}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(opt.seed))

	// Set-up, repeated: the seeded plan generator, the reference
	// designs, and one daemon boot with its health probe.
	var refs map[string]explore.Point
	var setups []time.Duration
	for i := 0; i < setupReps(opt); i++ {
		start := time.Now()
		daemonPlan(rand.New(rand.NewSource(opt.seed)))
		var err error
		if refs, err = daemonRefs(); err != nil {
			return nil, err
		}
		d, err := bootDaemon(filepath.Join(opt.dir, "boot"), client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	if opt.corrupt {
		k := synthKey(daemonSizes[0], daemonPresets[0])
		p := refs[k]
		p.Area++
		refs[k] = p
	}
	beginTimedPhase()
	if opt.trace {
		return traceDaemonMix(opt, out, refs, client, rng)
	}

	var e e2e
	e.setup = setups
	var repeats []float64
	coalesced := 0
	dir := filepath.Join(opt.dir, "daemon")
	end := deadline(opt)
	passes := 0
	for ; passes < daemonPasses && (passes == 0 || time.Now().Before(end)); passes++ {
		res, err := runPass(dir, daemonPlan(rng), client, nil)
		if err != nil {
			return nil, err
		}
		e.timed += res.timed
		first := firstSubmits(res.runs)
		for i, r := range res.runs {
			out.attempted++
			if msg := checkJob(r, refs); msg != "" {
				out.fail("daemon pass %d %s job: %s", passes, r.req.Kind, msg)
			}
			if first[i] {
				e.latencies = append(e.latencies, r.latency)
				continue
			}
			repeats = append(repeats, ms(r.latency))
			if r.deduped {
				coalesced++
			}
		}
	}
	if passes < daemonPasses {
		out.note("only %d of %d passes fit in %gs: latency ranks are not comparable with a full run", passes, daemonPasses, opt.seconds)
	}
	out.note("%d passes, %d jobs: %d first submits (latency metrics), %d repeat submits (%.0f%% of jobs): "+
		"repeat p50 %.3f ms, %d coalesced into the in-flight first submit, the rest served from the point cache",
		passes, out.attempted, len(e.latencies), len(repeats), 100*ratio(float64(len(repeats)), float64(out.attempted)),
		median(repeats), coalesced)
	e.completed = out.attempted
	e.designs = daemonDesigns(refs)
	out.metrics = e.metrics(out)
	return out, nil
}

// firstSubmits marks the jobs that were the first submit of their
// request in a pass; the others are repeats, which coalesce with the
// first or hit the point cache.
func firstSubmits(runs []jobRun) []bool {
	first := make([]bool, len(runs))
	earliest := map[string]int{}
	for i, r := range runs {
		k := fmt.Sprintf("%+v", r.req)
		if j, ok := earliest[k]; !ok || r.submit.Before(runs[j].submit) {
			earliest[k] = i
		}
	}
	for _, i := range earliest {
		first[i] = true
	}
	return first
}

// daemonDesigns is the distinct synth designs of the mix. Every pass
// submits each (size, preset) pair at least once, and each result is
// checked equal to its reference, so the references stand for them;
// the engine's simulation depth of 1 makes their latency the FSM state
// count.
func daemonDesigns(refs map[string]explore.Point) [][2]float64 {
	var ds [][2]float64
	for _, n := range daemonSizes {
		for _, p := range daemonPresets {
			r := refs[synthKey(n, p)]
			ds = append(ds, [2]float64{float64(r.Cycles), r.Area})
		}
	}
	return ds
}

// traceDaemonMix is daemon-mix's traced run: passes alternate between
// traced (every job becomes a service.job span with its queue-wait and
// run intervals as children, and the engine's obs-bus events are
// folded in) and untraced, for the overhead baseline.
func traceDaemonMix(opt options, out *outcome, refs map[string]explore.Point, client *http.Client, rng *rand.Rand) (*outcome, error) {
	tr := newTracer(fmt.Sprintf("daemon-mix/seed%d", opt.seed))
	s := samples{}
	var traced, untraced, repeats []float64
	var jobs, submits, deduped, revisits, evaluations float64
	dir := filepath.Join(opt.dir, "daemon")
	end := deadline(opt)
	for pass := 0; pass < daemonPasses && (pass == 0 || time.Now().Before(end)); pass++ {
		tracedPass := pass%2 == 0
		var sub *obs.Sub
		var bus *obs.Bus
		// A pass publishes a few thousand events (tier traffic dominates);
		// the buffer holds a whole pass so nothing is dropped.
		attach := func(b *obs.Bus) { bus, sub = b, b.Subscribe(1<<14) }
		if !tracedPass {
			attach = nil
		}
		passSpan := 0
		if tracedPass {
			passSpan = tr.begin("daemon.pass", 0)
		}
		res, err := runPass(dir, daemonPlan(rng), client, attach)
		if err != nil {
			return nil, err
		}
		first := firstSubmits(res.runs)
		for i, r := range res.runs {
			out.attempted++
			if msg := checkJob(r, refs); msg != "" {
				out.fail("daemon pass %d %s job: %s", pass, r.req.Kind, msg)
			}
			if !first[i] {
				repeats = append(repeats, ms(r.latency))
			}
			if !tracedPass {
				untraced = append(untraced, ms(r.latency))
				continue
			}
			traced = append(traced, ms(r.latency))
			submits++
			if r.deduped {
				deduped++
			}
			if sv := r.view.Result; sv != nil && sv.Search != nil {
				revisits += float64(sv.Search.Revisits)
				evaluations += float64(sv.Search.Evaluations)
			}
			id := tr.add("service.job", passSpan, r.submit, r.submit.Add(r.latency))
			v := r.view
			if r.deduped || v.Started == nil || v.Finished == nil {
				continue
			}
			tr.add("service.queue_wait", id, v.Created, *v.Started)
			tr.add("service.run", id, *v.Started, *v.Finished)
			s.add("service.queue_wait_ms", 0, ms(v.Started.Sub(v.Created)))
			s.add("service.run_ms", 0, ms(v.Finished.Sub(*v.Started)))
			s.add("service.client_overhead_ms", 0, ms(r.latency-v.Finished.Sub(v.Created)))
		}
		if !tracedPass {
			continue
		}
		tr.end(passSpan)
		evs := drain(sub)
		bus.Unsubscribe(sub)
		tr.foldObs(evs, passSpan, false)
		for _, ev := range evs {
			if ev.Type == obs.TypeStage && ev.Stage == "point" {
				s.add("explore.eval_ms", 0, float64(ev.DurationNs)/1e6)
			}
		}
		addStats(s, res.stats)
		jobs += float64(len(res.runs))
	}
	if err := tr.write(traceFile(opt)); err != nil {
		return nil, err
	}
	m := layerMetrics(s)
	setStatRatios(m, s)
	// The engine's accounting is summed per pass; report it per job.
	for _, name := range []string{"explore.computed.frontend", "explore.computed.midend",
		"explore.computed.backend", "explore.computed.point",
		"blob.mem_hits", "blob.disk_hits", "blob.backfills", "blob.errors"} {
		m.set(name, ratio(s.sum(name), jobs), "count")
	}
	m.set("service.coalesced_ratio", ratio(deduped, submits), "ratio")
	m.set("service.repeat_job_ms", mean(repeats), "ms")
	m.set("explore.search_revisit_ratio", ratio(revisits, evaluations), "ratio")
	m.set("trace.overhead_frac", ratio(mean(traced)-mean(untraced), mean(untraced)), "ratio")
	out.metrics = m
	tr.selfTimeNotes(out)
	out.note("spans written to %s", traceFile(opt))
	return out, nil
}
