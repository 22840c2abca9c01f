package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/hb"
	"jskernel/internal/kernel"
	"jskernel/internal/obs"
	"jskernel/internal/serve"
	"jskernel/internal/telemetry"
	"jskernel/internal/trace"
)

// The traced run replays a workload's own operations in-process, one
// layer ("rung") at a time, each rung built from public calls:
//
//	bare        attack.Evaluate / EvaluateCVE on a reused kernel.NewEnvironment runtime
//	session     + a metrics-only trace.Session
//	retain      + record retention (and, timed apart, trace.Validate)
//	obs         session + obs events (no sinks)
//	collector, detectors, hb, stream-validator, profiler
//	            obs + that one sink
//	plane       obs + every sink the telemetry plane attaches per eval
//
// Every rung's outcome must be byte-equal to the bare rung's. Sink
// costs are reported as the increment over the rung they build on.

// ladderOp is one operation of a workload, in the form each layer
// takes it.
type ladderOp struct {
	timing *attack.TimingAttack
	cve    *attack.CVEAttack
	def    defense.Defense
	req    serve.Request
}

// ladderOps lists a workload's operations: for a serve workload its
// population in its first-pass order; for table1 the cells of one
// render.
func ladderOps(workload string, seed int64) ([]ladderOp, error) {
	var reqs []serve.Request
	if workload == wlTable1 {
		reqs = table1Requests(seed)
	} else {
		pop := population(workload, seed)
		for _, i := range passOrder(seed, 0, len(pop)) {
			reqs = append(reqs, pop[i])
		}
	}
	ops := make([]ladderOp, len(reqs))
	for i, r := range reqs {
		d, err := defense.ByID(r.Defense)
		if err != nil {
			return nil, err
		}
		ops[i] = ladderOp{def: d, req: r}
		for _, a := range attack.TimingAttacks() {
			if a.ID == r.Attack {
				ops[i].timing = a
			}
		}
		for _, a := range attack.CVEAttacks() {
			if string(a.CVE) == r.Attack {
				ops[i].cve = a
			}
		}
		if ops[i].timing == nil && ops[i].cve == nil {
			return nil, fmt.Errorf("unknown attack %q", r.Attack)
		}
	}
	return ops, nil
}

// evaluate runs one op on the defense as configured by the rung.
func (op ladderOp) evaluate(d defense.Defense) attack.Outcome {
	if op.timing != nil {
		return op.timing.Evaluate(d, op.req.Reps, op.req.Seed)
	}
	return attack.EvaluateCVE(op.cve, d, op.req.Seed)
}

// rung describes one layer configuration.
type rung struct {
	name    string
	session bool
	retain  bool
	obs     bool
	sinks   func() []trace.Sink
}

func sinks(fs ...func() trace.Sink) func() []trace.Sink {
	return func() []trace.Sink {
		out := make([]trace.Sink, len(fs))
		for i, f := range fs {
			out[i] = f()
		}
		return out
	}
}

var (
	newCollector = func() trace.Sink { return obs.NewCollector() }
	newDetectors = func() trace.Sink { return obs.NewDetectors(obs.DefaultDetectorConfig()) }
	newHB        = func() trace.Sink { return hb.NewDetector() }
	newStreamVal = func() trace.Sink { return trace.NewStreamValidator(false) }
	newProfiler  = func() trace.Sink { return obs.NewProfiler() }
)

var rungs = []rung{
	{name: "bare"},
	{name: "session", session: true},
	{name: "retain", session: true, retain: true},
	{name: "obs", session: true, obs: true},
	{name: "collector", session: true, obs: true, sinks: sinks(newCollector)},
	{name: "detectors", session: true, obs: true, sinks: sinks(newDetectors)},
	{name: "hb", session: true, obs: true, sinks: sinks(newHB)},
	{name: "stream-validator", session: true, obs: true, sinks: sinks(newStreamVal)},
	{name: "profiler", session: true, obs: true, sinks: sinks(newProfiler)},
	{name: "plane", session: true, obs: true, sinks: sinks(newCollector, newDetectors, newHB)},
}

// rungResult is one rung's measurement over all ops.
type rungResult struct {
	msPerOp, kbPerOp, allocsPerOp float64
	validateMs                    float64 // retain rung only
	records, dispatched           float64 // per op, session rungs
	crossings, decisions          float64
	gc                            rtDelta
	outcomes                      []string
	raw                           []attack.Outcome        // bare rung only
	captures                      []*telemetry.EvalRecord // plane rung only
	failures                      []string

	rt                                        *defense.Runtime
	took, validate                            time.Duration
	nRecords, nDispatched, nCross, nDecisions uint64
}

// outcomeKey renders an outcome deterministically for comparison.
func outcomeKey(o attack.Outcome) string { return fmt.Sprintf("%+v", o) }

// runRungs evaluates every op under every rung. The rungs are
// interleaved: op by op, each op runs on every rung back to back, the
// starting rung rotating from op to op, so a slow spell of the machine
// lands on all rungs alike rather than on whichever rung was running.
// Each rung keeps one environment for all its ops, the way a serve
// worker does.
func runRungs(ops []ladderOp) []*rungResult {
	out := make([]*rungResult, len(rungs))
	for r := range out {
		out[r] = &rungResult{rt: &defense.Runtime{Env: kernel.NewEnvironment()}}
	}
	runtime.GC()
	for i, op := range ops {
		for k := range rungs {
			r := (i + k) % len(rungs)
			out[r].run(rungs[r], op)
		}
	}
	n := float64(len(ops))
	for _, res := range out {
		res.msPerOp = ms(res.took) / n
		res.validateMs = ms(res.validate) / n
		res.kbPerOp = float64(res.gc.allocBytes) / 1024 / n
		res.allocsPerOp = float64(res.gc.allocObjects) / n
		res.records = float64(res.nRecords) / n
		res.dispatched = float64(res.nDispatched) / n
		res.crossings = float64(res.nCross) / n
		res.decisions = float64(res.nDecisions) / n
	}
	return out
}

// run evaluates one op under rung rg. The time and the runtime deltas
// cover the evaluation and the rung's per-op layer work; trace.Validate
// is timed apart.
func (res *rungResult) run(rg rung, op ladderOp) {
	before := readRuntime()
	start := time.Now()
	d := op.def.WithRuntime(res.rt)
	var sess *trace.Session
	var attached []trace.Sink
	if rg.session {
		sess = trace.NewSession()
		sess.SetRetain(rg.retain)
		if rg.sinks != nil {
			attached = rg.sinks()
			for _, s := range attached {
				sess.Attach(s)
			}
		}
		if rg.obs {
			d = d.WithObs(true)
		}
		d = d.WithTracer(sess)
	}
	out := op.evaluate(d)
	res.outcomes = append(res.outcomes, outcomeKey(out))
	if sess == nil {
		res.raw = append(res.raw, out)
	} else {
		sess.Close()
		m := sess.Metrics()
		res.nRecords += uint64(sess.Len())
		res.nDispatched += m.Dispatched
		res.nCross += m.InterposeCrossings
		res.nDecisions += m.PolicyDecisions
		if rg.retain {
			recs := sess.Records()
			t0 := time.Now()
			if _, err := trace.Validate(recs); err != nil {
				res.failures = append(res.failures, fmt.Sprintf("%s/%s: validate: %v", op.req.Attack, op.req.Defense, err))
			}
			res.validate += time.Since(t0)
		}
		for _, s := range attached {
			if sv, ok := s.(*trace.StreamValidator); ok {
				if _, err := sv.Finish(); err != nil {
					res.failures = append(res.failures, fmt.Sprintf("%s/%s: stream validate: %v", op.req.Attack, op.req.Defense, err))
				}
			}
		}
		if rg.name == "plane" {
			res.captures = append(res.captures, planeCapture(op, m, attached))
		}
	}
	took := time.Since(start)
	res.gc.add(before.to(readRuntime()))
	res.took += took
}

// planeCapture builds the record a plane-on daemon submits for this op
// from the plane rung's sinks (collector, detectors, hb detector):
// the kernel metrics, the forensic summary with its race findings, and
// the ledger fragments. internal/serve assembles the same record from
// the same public calls.
func planeCapture(op ladderOp, m *trace.Metrics, attached []trace.Sink) *telemetry.EvalRecord {
	col, det, races := attached[0].(*obs.Collector), attached[1].(*obs.Detectors), attached[2].(*hb.Detector)
	sum := &serve.ForensicsSummary{}
	if op.timing != nil {
		reps := make([]obs.CellReadings, op.req.Reps)
		for r := range reps {
			for v := 0; v < 2; v++ {
				reps[r].Variants[v] = obs.ExtractReadings(op.timing.ID, col.Run(2*r+1+v))
			}
		}
		var defended bool
		sum.Channels, defended = obs.JudgeTiming(reps)
		sum.Flagged = !defended
	} else {
		sum.Flagged, sum.Evidence = obs.MirrorExploited(col.Run(1), op.cve.CVE)
	}
	if sum.Flagged {
		sum.Signatures = det.Finish()
	}
	var frags []telemetry.ClassFragment
	for _, f := range det.Fragments() {
		frags = append(frags, telemetry.ClassFragment{Class: f.Detector, Score: int64(f.Count)})
	}
	found := races.Findings()
	byClass := map[string]int64{}
	for _, f := range found {
		byClass["race-"+f.Class] += telemetry.DefaultLedgerConfig().RaceWeight
	}
	frags = append(frags, telemetry.SortedFragments(byClass)...)
	return &telemetry.EvalRecord{
		RequestID: "ladder", Tenant: op.req.Tenant, Scope: op.req.Attack, Metrics: m,
		Forensics: &serve.ForensicsEvent{RequestID: "ladder", Tenant: op.req.Tenant, Attack: op.req.Attack,
			Defense: op.req.Defense, Seed: op.req.Seed, Summary: sum, Races: found},
		Fragments: frags,
	}
}

// submitMicros times the full hand-over of the captured records to a
// batched plane, the way serve workers submit them: Plane.SubmitEval
// for each record, then Plane.Barrier, so the flusher's apply work
// (aggregates, ledger, event fan-out) is inside the timed span. The
// result is microseconds per record.
func submitMicros(recs []*telemetry.EvalRecord) float64 {
	const rounds = 20
	p := telemetry.NewPlane(telemetry.PlaneConfig{Ledger: telemetry.DefaultLedgerConfig()})
	defer p.Close()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, rec := range recs {
			p.SubmitEval(rec)
		}
		p.Barrier()
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(rounds*len(recs))
}

// wireVerdict is the part of a /v1/eval body the ladder compares with
// the bare outcome.
type wireVerdict struct {
	Attack    string          `json:"attack"`
	Defense   string          `json:"defense"`
	Seed      int64           `json:"seed"`
	Defended  bool            `json:"defended"`
	Exploited bool            `json:"exploited"`
	Channels  json.RawMessage `json:"channels"`
}

// expectedVerdict is what the daemon must answer for a bare outcome.
func expectedVerdict(op ladderOp, o attack.Outcome) (wireVerdict, error) {
	w := wireVerdict{Attack: op.req.Attack, Defense: op.req.Defense, Seed: op.req.Seed, Defended: o.Defended, Exploited: o.Exploited}
	var chans []serve.Channel
	for _, ch := range o.Channels {
		chans = append(chans, serve.Channel{Channel: ch.Channel, MeanA: ch.MeanA, MeanB: ch.MeanB, CohensD: ch.CohensD, Leaks: ch.Leaks})
	}
	if len(chans) > 0 {
		raw, err := json.Marshal(chans)
		if err != nil {
			return w, err
		}
		w.Channels = raw
	}
	return w, nil
}

// httpRungResult is the HTTP rung's measurement.
type httpRungResult struct {
	rttMs     float64
	phaseMs   map[string]float64
	metricsMs float64
	failures  []string
}

// runHTTPRung sends every op, one at a time, to a plane-on daemon and
// checks each verdict against the bare outcome. It returns the mean
// client round trip, the span phase means from the final /metricsz,
// and the median in-process /metricsz time.
func runHTTPRung(ops []ladderOp, bare []attack.Outcome) (httpRungResult, error) {
	var res httpRungResult
	d, err := startDaemon(serve.Config{Pool: nproc(), Telemetry: true}, 1)
	if err != nil {
		return res, err
	}
	defer d.stop()
	var rtt time.Duration
	for i, op := range ops {
		t0 := time.Now()
		body, err := d.client.EvalBytes(context.Background(), op.req)
		rtt += time.Since(t0)
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s/%s: %v", op.req.Attack, op.req.Defense, err))
			continue
		}
		var got wireVerdict
		if err := json.Unmarshal(body, &got); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s/%s: decode: %v", op.req.Attack, op.req.Defense, err))
			continue
		}
		want, err := expectedVerdict(op, bare[i])
		if err != nil {
			return res, err
		}
		if got.Attack != want.Attack || got.Defense != want.Defense || got.Seed != want.Seed ||
			got.Defended != want.Defended || got.Exploited != want.Exploited || !bytes.Equal(got.Channels, want.Channels) {
			res.failures = append(res.failures, fmt.Sprintf("%s/%s: verdict differs from the bare rung", op.req.Attack, op.req.Defense))
		}
	}
	res.rttMs = ms(rtt) / float64(len(ops))

	fams, err := d.scrape(context.Background())
	if err != nil {
		return res, fmt.Errorf("final scrape: %w", err)
	}
	res.phaseMs = spanPhaseMeans(fams)

	var took []float64
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
		t0 := time.Now()
		d.srv.Handler().ServeHTTP(rec, req)
		took = append(took, ms(time.Since(t0)))
		if rec.Code != http.StatusOK {
			return res, fmt.Errorf("in-process metricsz status %d", rec.Code)
		}
		if _, err := telemetry.ParseExposition(rec.Body.String()); err != nil {
			return res, fmt.Errorf("in-process metricsz: %w", err)
		}
	}
	res.metricsMs = median(took)
	return res, nil
}

// spanPhaseMeans reads the mean of each span phase histogram, in ms.
func spanPhaseMeans(fams []telemetry.Family) map[string]float64 {
	sum, count := map[string]float64{}, map[string]float64{}
	for _, f := range fams {
		if f.Name != "jsk_span_phase_seconds" {
			continue
		}
		for _, s := range f.Samples {
			phase := ""
			for _, l := range s.Labels {
				if l.Name == "phase" {
					phase = l.Value
				}
			}
			switch s.Suffix {
			case "_sum":
				sum[phase] = s.Value
			case "_count":
				count[phase] = s.Value
			}
		}
	}
	out := map[string]float64{}
	for p, c := range count {
		if c > 0 {
			out[p] = sum[p] / c * 1e3
		}
	}
	return out
}

// ownRung names the rung whose configuration matches the workload's
// own requests; the GC metrics are taken over it.
func ownRung(workload string) string {
	switch workload {
	case wlServePlane:
		return "plane"
	case wlServeTraced:
		return "retain"
	}
	return "bare"
}

// runLadder is the traced run: every rung over the workload's ops,
// the HTTP rung, the plane submit path and the runner speedup.
func runLadder(workload string, seed int64, prov *provenance, stderr io.Writer) (result, error) {
	ops, err := ladderOps(workload, seed)
	if err != nil {
		return result{}, err
	}
	if workload == wlTable1 {
		prov.CompositionDigest, prov.OrderDigest = table1Digests(seed)
	} else {
		prov.CompositionDigest, prov.OrderDigest = populationDigests(workload, seed)
	}
	res := result{Metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// One untimed bare pass first, so no rung absorbs the process's
	// cold start (heap growth, first-touch page faults, lazy set-up).
	warm := &rungResult{rt: &defense.Runtime{Env: kernel.NewEnvironment()}}
	for _, op := range ops {
		warm.run(rungs[0], op)
	}

	byName := map[string]*rungResult{}
	results := runRungs(ops)
	bare := results[0].raw
	for k, rg := range rungs {
		rr := results[k]
		res.Attempted += len(ops)
		for i := range ops {
			if rr.outcomes[i] != results[0].outcomes[i] {
				res.Failed++
				prov.Problems = append(prov.Problems, fmt.Sprintf("rung %s: %s/%s outcome differs from bare", rg.name, ops[i].req.Attack, ops[i].req.Defense))
			}
		}
		prov.Problems = append(prov.Problems, rr.failures...)
		byName[rg.name] = rr
		fmt.Fprintf(stderr, "rung %-17s %9.3f ms/op %10.1f kB/op %10.0f allocs/op\n", rg.name, rr.msPerOp, rr.kbPerOp, rr.allocsPerOp)
		set("ladder."+rg.name+".kb", rr.kbPerOp, "kB")
		set("ladder."+rg.name+".allocs", rr.allocsPerOp, "count")
	}

	r := func(n string) *rungResult { return byName[n] }
	set("eval.bare_ms", r("bare").msPerOp, "ms")
	set("eval.bare_allocs", r("bare").allocsPerOp, "count")
	set("kernel.dispatched", r("session").dispatched, "count")
	set("kernel.interpose_crossings", r("session").crossings, "count")
	set("kernel.policy_decisions", r("session").decisions, "count")
	set("trace.session_ms", r("session").msPerOp-r("bare").msPerOp, "ms")
	set("trace.records", r("session").records, "count")
	set("trace.retain_ms", r("retain").msPerOp-r("session").msPerOp, "ms")
	set("trace.retained_kb", r("retain").kbPerOp-r("session").kbPerOp, "kB")
	set("trace.validate_ms", r("retain").validateMs, "ms")
	set("obs.events_ms", r("obs").msPerOp-r("session").msPerOp, "ms")
	set("obs.collector_ms", r("collector").msPerOp-r("obs").msPerOp, "ms")
	set("obs.detectors_ms", r("detectors").msPerOp-r("obs").msPerOp, "ms")
	set("hb.detector_ms", r("hb").msPerOp-r("obs").msPerOp, "ms")
	set("trace.stream_validator_ms", r("stream-validator").msPerOp-r("obs").msPerOp, "ms")
	set("obs.profiler_ms", r("profiler").msPerOp-r("obs").msPerOp, "ms")
	set("plane.capture_ms", r("plane").msPerOp-r("obs").msPerOp, "ms")

	own := r(ownRung(workload))
	n := float64(len(ops))
	set("gc.cycles", float64(own.gc.gcCycles)/n, "count")
	set("gc.pause_ms", float64(own.gc.pauseNs)/1e6/n, "ms")
	set("gc.cpu_share", own.gc.gcCPUShare(), "share")

	set("telemetry.submit_us", submitMicros(r("plane").captures), "us")

	hr, err := runHTTPRung(ops, bare)
	if err != nil {
		return result{}, err
	}
	res.Attempted += len(ops)
	res.Failed += len(hr.failures)
	prov.Problems = append(prov.Problems, hr.failures...)
	server := 0.0
	for _, p := range []string{"admission", "queue", "eval", "render"} {
		set("serve."+p+"_ms", hr.phaseMs[p], "ms")
		server += hr.phaseMs[p]
	}
	set("serve.metricsz_ms", hr.metricsMs, "ms")
	set("http.overhead_ms", hr.rttMs-server, "ms")

	speedup, err := runnerSpeedup(seed)
	if err != nil {
		return result{}, err
	}
	set("runner.speedup", speedup, "x")
	finish(&res, prov)
	if len(prov.Problems) > 10 {
		prov.Problems = append(prov.Problems[:10], fmt.Sprintf("... and %d more", len(prov.Problems)-10))
	}
	return res, nil
}

// runnerSpeedup is Table I render time at width 1 over width nproc;
// both renders must agree byte for byte.
func runnerSpeedup(seed int64) (float64, error) {
	serial, _, t1, err := renderTable1(table1Config(seed, 1))
	if err != nil {
		return 0, err
	}
	par, _, tn, err := renderTable1(table1Config(seed, nproc()))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(serial, par) {
		return 0, fmt.Errorf("Table I at width %d differs from width 1", nproc())
	}
	return t1.Seconds() / tn.Seconds(), nil
}
