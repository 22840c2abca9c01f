package main

import (
	"math"
	"os"
	"testing"

	"jskernel/internal/serve"
)

// TestMain lets the test binary stand in for the perfbench binary when
// a workload starts a child probe (os.Executable is the test binary).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "--gauge-probe" || os.Args[1] == "--setup-probe") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smallPopulation is a cheap slice of the serve population: every CVE
// request plus two fast timing cells.
func smallPopulation() []serve.Request {
	var out []serve.Request
	for _, r := range population(wlServePlane, DefaultSeed) {
		if r.Reps == 0 || (r.Attack == "clock-edge" && (r.Defense == "chrome" || r.Defense == "edge")) {
			out = append(out, r)
		}
	}
	return out
}

func TestServeRunIsCorrect(t *testing.T) {
	var prov provenance
	res, err := runServe(serveRun{workload: wlServePlane, seed: DefaultSeed, seconds: 0.05, pop: smallPopulation()}, &prov)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || prov.FailShare != 0 {
		t.Fatalf("correct=%t failed=%d fail_share=%g problems=%v", res.Correct, res.Failed, prov.FailShare, prov.Problems)
	}
	for _, m := range []string{"setup_s", "ops_per_s", "p50_ms", "p90_ms", "scrape_ms", "peak_rss_mb", "alloc_kb_per_op", "correct_share"} {
		if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value", m, v)
		}
	}
}

func TestCorruptedReferenceFailsEveryOp(t *testing.T) {
	var prov provenance
	flip := func(b []byte) []byte {
		b[len(b)/2] ^= 0x20
		return b
	}
	res, err := runServe(serveRun{workload: wlServePlane, seed: DefaultSeed, seconds: 0.05, pop: smallPopulation(), corrupt: flip}, &prov)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted || prov.FailShare != 1 {
		t.Fatalf("corrupted reference: correct=%t failed=%d/%d fail_share=%g, want every op failed",
			res.Correct, res.Failed, res.Attempted, prov.FailShare)
	}
	if got := res.Metrics["correct_share"].Value; got != 0 {
		t.Fatalf("correct_share = %g, want 0", got)
	}
}

func TestSeedsShareComposition(t *testing.T) {
	for _, w := range []string{wlServeTraced, wlServePlane} {
		compA, orderA := populationDigests(w, DefaultSeed)
		compB, orderB := populationDigests(w, HeldOutSeed)
		if compA != compB {
			t.Errorf("%s: composition differs between seeds %d and %d", w, DefaultSeed, HeldOutSeed)
		}
		if orderA == orderB {
			t.Errorf("%s: seeds %d and %d give the same order", w, DefaultSeed, HeldOutSeed)
		}
	}
	a, b := passOrder(DefaultSeed, 0, 104), passOrder(HeldOutSeed, 0, 104)
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("serve-plane: first-pass permutations are equal")
	}
	compA, orderA := table1Digests(DefaultSeed)
	compB, orderB := table1Digests(HeldOutSeed)
	if compA != compB || orderA == orderB {
		t.Errorf("table1: composition equal=%t, order equal=%t; want equal composition, different seeds", compA == compB, orderA == orderB)
	}
	// serve-traced asks for the trace only; serve-plane adds 1 in 8
	// with forensics and 4 tenants.
	for _, r := range population(wlServeTraced, DefaultSeed) {
		if !r.Trace || r.Forensics || r.Tenant != "" {
			t.Fatalf("serve-traced request with other flags than trace: %+v", r)
		}
	}
	pop := population(wlServePlane, DefaultSeed)
	forensics, tenantSet := 0, map[string]bool{}
	for _, r := range pop {
		if r.Forensics {
			forensics++
		}
		tenantSet[r.Tenant] = true
		if !r.Trace {
			t.Fatalf("serve-plane request without trace: %+v", r)
		}
	}
	if len(pop) != 104 || forensics != 13 || len(tenantSet) != tenants {
		t.Errorf("serve-plane population: %d requests, %d with forensics, %d tenants", len(pop), forensics, len(tenantSet))
	}
}

func TestGaugeReading(t *testing.T) {
	if got := gaugeWork(); got != gaugeSum {
		t.Fatalf("gaugeWork = %d, want %d", got, gaugeSum)
	}
	g, err := newSpeedGauge()
	if err != nil {
		t.Fatal(err)
	}
	speed, err := g.next()
	if err != nil {
		t.Fatal(err)
	}
	if speed <= 0 || len(g.readings) != 2 {
		t.Fatalf("speed = %g after %d readings, want > 0 after 2", speed, len(g.readings))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q2, q3 = quartiles([]float64{8, 4, 1, 2})
	if q1 != 1.25 || q2 != 3 || q3 != 7 {
		t.Fatalf("quartiles = %g %g %g, want 1.25 3 7", q1, q2, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	p, v, beyond := tailPercentile(seq(100), 0.9, 10)
	if p != 0.9 || v != 90 || beyond != 10 {
		t.Fatalf("100 samples: p=%g v=%g beyond=%d, want 0.9 90 10", p, v, beyond)
	}
	p, v, beyond = tailPercentile(seq(50), 0.9, 10)
	if math.Abs(p-0.8) > 1e-12 || v != 40 || beyond != 10 {
		t.Fatalf("50 samples: p=%g v=%g beyond=%d, want 0.8 40 10", p, v, beyond)
	}
}

func TestLadderRungsAgreeWithBare(t *testing.T) {
	ops, err := ladderOps(wlServePlane, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var small []ladderOp
	for _, op := range ops {
		if op.cve != nil || op.req.Attack == "clock-edge" {
			small = append(small, op)
		}
	}
	results := runRungs(small)
	bare := results[0]
	for k, rg := range rungs {
		rr := results[k]
		if len(rr.failures) > 0 {
			t.Errorf("rung %s: %v", rg.name, rr.failures)
		}
		for i := range small {
			if rr.outcomes[i] != bare.outcomes[i] {
				t.Errorf("rung %s: %s/%s outcome differs from bare", rg.name, small[i].req.Attack, small[i].req.Defense)
			}
		}
	}
	hr, err := runHTTPRung(small, bare.raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.failures) > 0 {
		t.Fatalf("HTTP rung: %v", hr.failures)
	}
	for _, p := range []string{"admission", "queue", "eval", "render"} {
		if hr.phaseMs[p] <= 0 {
			t.Errorf("span phase %s mean = %g, want > 0", p, hr.phaseMs[p])
		}
	}
}
