package serve

import (
	"bytes"
	"strings"

	"jskernel/internal/attack"
	"jskernel/internal/browser"
	"jskernel/internal/defense"
	"jskernel/internal/hb"
	"jskernel/internal/obs"
	"jskernel/internal/report"
	"jskernel/internal/telemetry"
	"jskernel/internal/trace"
)

// This file is the deterministic heart of the service: resolve turns a
// wire request into a concrete cell, evaluate runs it. Nothing here may
// read the wall clock, the pool, or any per-worker identity — the
// response must be a pure function of (Request, resolved defaults), and
// the determinism tests compare response bytes across pool widths and
// environment-reuse depths to hold that line.

// cell is a resolved, validated request: exactly one Table I coordinate.
type cell struct {
	req     Request
	kind    string // "timing" or "cve"
	timing  *attack.TimingAttack
	cve     *attack.CVEAttack
	defense defense.Defense
	reps    int // resolved repetition budget (timing only)
}

// timingByID finds a timing-attack row.
func timingByID(id string) *attack.TimingAttack {
	for _, a := range attack.TimingAttacks() {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// cveByID finds a CVE row by its identifier.
func cveByID(id string) *attack.CVEAttack {
	for _, a := range attack.CVEAttacks() {
		if string(a.CVE) == id {
			return a
		}
	}
	return nil
}

// resolve validates the request against the catalog and the server's
// repetition bounds. It runs at admission time, before any pool
// capacity is spent, so malformed work is rejected without queueing.
func (c *Config) resolve(req Request) (*cell, *Error) {
	cl := &cell{req: req}
	if req.Attack == "" {
		return nil, errf(CodeBadRequest, "missing attack")
	}
	if req.Defense == "" {
		return nil, errf(CodeBadRequest, "missing defense")
	}
	d, err := defense.ByID(req.Defense)
	if err != nil {
		return nil, errf(CodeUnknownDefense, "unknown defense %q", req.Defense)
	}
	cl.defense = d
	if strings.HasPrefix(req.Attack, "CVE-") {
		cl.kind = "cve"
		cl.cve = cveByID(req.Attack)
		if cl.cve == nil {
			return nil, errf(CodeUnknownAttack, "unknown CVE row %q", req.Attack)
		}
	} else {
		cl.kind = "timing"
		cl.timing = timingByID(req.Attack)
		if cl.timing == nil {
			return nil, errf(CodeUnknownAttack, "unknown timing row %q", req.Attack)
		}
		cl.reps = req.Reps
		if cl.reps == 0 {
			cl.reps = c.defaultReps()
		}
		if cl.reps < 0 || cl.reps > c.maxReps() {
			return nil, errf(CodeBadRequest, "reps %d outside [1, %d]", cl.reps, c.maxReps())
		}
	}
	if req.DeadlineMs < 0 {
		return nil, errf(CodeBadRequest, "negative deadline_ms")
	}
	return cl, nil
}

// evalCapture is the telemetry plane's view of one evaluation: pure
// data assembled on the worker after the run, consumed by the plane
// after the response is already decided. Everything here is derived
// from the deterministic event stream — no wall clock, and nothing in
// it feeds back into the Response, which is what keeps response bytes
// byte-identical with the plane on or off.
type evalCapture struct {
	// metrics is the run's kernel metrics registry.
	metrics *trace.Metrics
	// link joins the request's wall-clock span to its virtual-time trace.
	link telemetry.SpanLink
	// forensics is the streaming per-request verdict (always assembled
	// when the plane is on, independent of Request.Forensics), published
	// on /v1/events.
	forensics *ForensicsSummary
	// fragments are the raw, below-threshold detector tallies plus
	// happens-before race counts that feed the cross-request ledger.
	fragments []telemetry.ClassFragment
	// races are the happens-before findings for the events stream.
	races []hb.Finding
}

// evaluate runs one resolved cell and assembles the wire response. rt
// binds the worker's pooled environment and the request's cancellation
// hook into every environment the evaluation builds; cap, when
// non-nil, captures the run's kernel metrics and streaming-forensics
// view for the observability plane.
//
// A canceled run never reaches response assembly: the worker checks the
// request context after evaluate returns and discards the result — a
// simulation abandoned mid-run has partial, meaningless samples, and
// returning them would be exactly the silent wrong answer this layer
// exists to prevent.
func evaluate(cl *cell, rt *defense.Runtime, cap *evalCapture) (*Response, *Error) {
	d := cl.defense.WithRuntime(rt)

	// One trace session serves every consumer of this request: the
	// response's validated trace summary (retained records), the
	// forensic re-judgement (collector + detectors), and the live
	// plane's kernel aggregate and streaming forensics (capture).
	// Tracing and obs events never perturb execution — the
	// obs-neutrality pin — so attaching any subset leaves the response
	// bytes unchanged.
	var sess *trace.Session
	var col *obs.Collector
	var det *obs.Detectors
	var races *hb.Detector
	wantTrace := cl.req.Trace
	wantForensics := cl.req.Forensics || cap != nil
	if wantTrace || wantForensics {
		sess = trace.NewSession()
		sess.SetRetain(wantTrace)
		if wantForensics {
			col = obs.NewCollector()
			det = obs.NewDetectors(obs.DefaultDetectorConfig())
			sess.Attach(col)
			sess.Attach(det)
			d = d.WithObs(true)
		}
		if cap != nil {
			races = hb.NewDetector()
			sess.Attach(races)
		}
		d = d.WithTracer(sess)
	}

	resp := &Response{
		Attack:  cl.req.Attack,
		Defense: cl.req.Defense,
		Kind:    cl.kind,
		Seed:    cl.req.Seed,
	}
	var out attack.Outcome
	switch cl.kind {
	case "timing":
		resp.Reps = cl.reps
		out = cl.timing.Evaluate(d, cl.reps, cl.req.Seed)
		resp.Defended = out.Defended
		for _, ch := range out.Channels {
			resp.Channels = append(resp.Channels, Channel{
				Channel: ch.Channel, MeanA: ch.MeanA, MeanB: ch.MeanB,
				CohensD: ch.CohensD, Leaks: ch.Leaks,
			})
		}
	default:
		out = attack.EvaluateCVE(cl.cve, d, cl.req.Seed)
		resp.Defended = out.Defended
		resp.Exploited = out.Exploited
	}

	if sess != nil {
		sess.Close()
	}
	if wantTrace {
		recs := sess.Records()
		if cap != nil && !cl.req.Forensics {
			// The plane forced obs events on for its streaming detectors,
			// but this request did not ask for forensics: its trace summary
			// must read exactly as it would with the plane off, so the
			// obs-only records are stripped before validation. Obs emission
			// never advances simulated time or perturbs other records (the
			// obs-neutrality pin), so the remainder is byte-identical to a
			// plane-off run's record set.
			recs = stripObsRecords(recs)
		}
		rep, err := trace.Validate(recs)
		if err != nil {
			return nil, errf(CodeInternal, "trace failed validation: %v", err)
		}
		resp.Trace = &TraceSummary{Validated: true, Report: *rep}
	}
	if cl.req.Forensics {
		resp.Forensics = assembleForensics(cl, col, det)
	}
	if cap != nil {
		cap.metrics = sess.Metrics()
		cap.link = telemetry.SpanLink{
			Runs:    sess.Runs(),
			LastSeq: sess.LastSeq(),
			VTMaxMs: sess.MaxVT().Milliseconds(),
		}
		// The streaming verdict reuses the exact per-response judgement,
		// so the /v1/events stream agrees with body forensics on every
		// request by construction.
		cap.forensics = assembleForensics(cl, col, det)
		cap.races = races.Findings()
		cap.fragments = captureFragments(det, races)
	}

	var label string
	if cl.kind == "timing" {
		label = cl.timing.Label
	} else {
		label = cl.cve.Label
	}
	tbl := &report.Table{
		Title:   "Table I cell",
		Columns: []string{"Attack", cl.defense.Label},
	}
	tbl.AddRow(label, report.Mark(resp.Defended))
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		return nil, errf(CodeInternal, "render table: %v", err)
	}
	resp.Table = buf.String()
	return resp, nil
}

// stripObsRecords removes the obs-only native records, recovering the
// record set an obs-off run of the same cell would have produced. It
// filters in place: recs is the session's private copy.
func stripObsRecords(recs []trace.Record) []trace.Record {
	out := recs[:0]
	for _, r := range recs {
		if r.Op == trace.OpNative {
			if k, ok := browser.KindByName(r.API); ok && k.ObsOnly() {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// assembleForensics re-judges the cell from its event stream alone,
// mirroring expr.ForensicsTable1's per-cell logic: timing rows
// reconstruct each repetition's readings (environments are built in
// (rep, variant) order, so rep r's variants are runs 2r+1 and 2r+2) and
// re-judge with the paper's criterion; CVE rows replay the exploit
// state machine over the native event mirror.
func assembleForensics(cl *cell, col *obs.Collector, det *obs.Detectors) *ForensicsSummary {
	fs := &ForensicsSummary{}
	if cl.kind == "timing" {
		reps := make([]obs.CellReadings, cl.reps)
		for r := 0; r < cl.reps; r++ {
			for v := 0; v < 2; v++ {
				reps[r].Variants[v] = obs.ExtractReadings(cl.timing.ID, col.Run(2*r+1+v))
			}
		}
		verdicts, defended := obs.JudgeTiming(reps)
		fs.Channels = verdicts
		fs.Flagged = !defended
	} else {
		fs.Flagged, fs.Evidence = obs.MirrorExploited(col.Run(1), cl.cve.CVE)
	}
	if fs.Flagged {
		fs.Signatures = det.Finish()
	}
	return fs
}
