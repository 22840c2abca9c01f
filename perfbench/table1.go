package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"jskernel/internal/expr"
)

// table1Setups is how many cold first renders (one fresh process each)
// the table1 set-up time is the median of.
const table1Setups = 5

// table1MinRenders is the fewest timed renders a table1 run makes, so
// its latency metrics never come from a handful of samples and its p90
// has at least two renders beyond it.
const table1MinRenders = 20

// table1Config is Table I at quick config and reps 1 for a workload
// seed and width, tracing off. Reps 1 keeps one render near a second,
// so a run holds enough renders for a median and a tail.
func table1Config(seed int64, width int) expr.Config {
	cfg := expr.QuickConfig()
	cfg.Seed = seed
	cfg.Reps = 1
	cfg.Parallel = width
	return cfg
}

// renderTable1 runs Table I and returns the rendered table, the result
// and the wall time of the run itself.
func renderTable1(cfg expr.Config) ([]byte, *expr.Table1Result, time.Duration, error) {
	start := time.Now()
	res, err := expr.Table1(cfg)
	took := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	var buf bytes.Buffer
	if err := res.Table.Render(&buf); err != nil {
		return nil, nil, 0, err
	}
	return buf.Bytes(), res, took, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// probeResult is what a --setup-probe child reports.
type probeResult struct {
	Seconds float64 `json:"seconds"`
	Digest  string  `json:"digest"`
}

// runSetupProbe times the first Table I render of a fresh process.
func runSetupProbe(seed int64, stdout, stderr io.Writer) int {
	out, _, took, err := renderTable1(table1Config(seed, nproc()))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup probe: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(probeResult{Seconds: took.Seconds(), Digest: digest(out)})
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// coldRender runs one set-up probe in a child process and waits for it.
func coldRender(seed int64) (probeResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return probeResult{}, err
	}
	cmd := exec.Command(exe, "--setup-probe", "--seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return probeResult{}, fmt.Errorf("setup probe: %w", err)
	}
	var pr probeResult
	sc := bufio.NewScanner(bytes.NewReader(out))
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &pr); err != nil {
		return probeResult{}, fmt.Errorf("setup probe output: %w", err)
	}
	return pr, nil
}

// After each timed render, outside the timed window, the render is
// read out as text for scrape_ms: readoutSamples timings of
// readoutBatch readouts each. Spreading the samples over the run keeps
// one slow spell of the machine from setting the figure.
const (
	readoutSamples = 10
	readoutBatch   = 100
)

// readout times reading tr out as text and checks the bytes against ref.
func readout(tr *expr.Table1Result, ref []byte) (samples []float64, ok bool, err error) {
	var buf bytes.Buffer
	for r := 0; r < readoutSamples; r++ {
		t0 := time.Now()
		for k := 0; k < readoutBatch; k++ {
			buf.Reset()
			if err := tr.Table.Render(&buf); err != nil {
				return nil, false, err
			}
		}
		samples = append(samples, ms(time.Since(t0))/readoutBatch)
	}
	return samples, bytes.Equal(buf.Bytes(), ref), nil
}

// runTable1 measures the table1 workload end to end.
func runTable1(seed int64, seconds float64, prov *provenance) (result, error) {
	width := nproc()
	cells := len(table1Requests(seed))
	prov.CompositionDigest, prov.OrderDigest = table1Digests(seed)

	// The reference: a width-1 render of the same seed.
	ref, _, _, err := renderTable1(table1Config(seed, 1))
	if err != nil {
		return result{}, fmt.Errorf("reference render: %w", err)
	}
	refDigest := digest(ref)

	g, err := newSpeedGauge()
	if err != nil {
		return result{}, err
	}
	var setupS, rawSetupS []float64
	for i := 0; i < table1Setups; i++ {
		pr, err := coldRender(seed)
		if err != nil {
			return result{}, err
		}
		if pr.Digest != refDigest {
			prov.Problems = append(prov.Problems, "cold render differs from the width-1 reference")
		}
		speed, err := g.next()
		if err != nil {
			return result{}, err
		}
		rawSetupS = append(rawSetupS, pr.Seconds)
		setupS = append(setupS, pr.Seconds/speed)
	}

	// The timed window is the renders alone: allocation, RSS and time
	// are taken around each render and summed or collected per render.
	// Each render and its readout are followed by a gauge reading, and
	// their times are divided by the box's speed around them.
	res := result{Metrics: map[string]metric{}}
	var renderMs, rawRenderMs, cellRate, readMs []float64
	var allocBytes uint64
	var timed time.Duration
	runtime.GC()
	rss := startRSS(10 * time.Millisecond)
	for renders := 0; renders < table1MinRenders || timed < time.Duration(seconds*float64(time.Second)); renders++ {
		if renders > 0 {
			rss.resume()
		}
		before := readRuntime()
		out, tr, took, err := renderTable1(table1Config(seed, width))
		if err != nil {
			return result{}, err
		}
		allocBytes += before.to(readRuntime()).allocBytes
		rss.cut() // one RSS peak per render
		samples, ok, err := readout(tr, ref)
		if err != nil {
			return result{}, err
		}
		if !ok {
			prov.Problems = append(prov.Problems, "readout differs from the width-1 reference")
		}
		speed, err := g.next()
		if err != nil {
			return result{}, err
		}
		timed += took
		rawRenderMs = append(rawRenderMs, ms(took))
		renderMs = append(renderMs, ms(took)/speed)
		res.Attempted += cells
		good := cells
		if !bytes.Equal(out, ref) {
			res.Failed += cells
			good = 0
		}
		cellRate = append(cellRate, float64(good)/took.Seconds()*speed)
		for _, v := range samples {
			readMs = append(readMs, v/speed)
		}
	}
	peak := rss.Stop()

	finish(&res, prov)

	p90, p90v, beyond := tailPercentile(renderMs, 0.90, 2)
	prov.Timed = timed.Seconds()
	prov.Passes = len(renderMs)
	prov.P90Percentile, prov.LatencyN, prov.P90Beyond = p90, len(renderMs), beyond
	prov.Scrapes = len(readMs)
	prov.SetupRuns = len(setupS)
	prov.GaugeRefMs, prov.GaugeMs, prov.GaugeRuns = gaugeRefMs, g.medianMs(), len(g.readings)
	prov.RawP50Ms, prov.RawSetupS = median(rawRenderMs), median(rawSetupS)
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", median(setupS), "s")
	set("ops_per_s", median(cellRate), "1/s")
	set("p50_ms", median(renderMs), "ms")
	set("p90_ms", p90v, "ms")
	set("scrape_ms", median(readMs), "ms")
	set("peak_rss_mb", peak, "MiB")
	set("alloc_kb_per_op", float64(allocBytes)/1024/float64(max(res.Attempted, 1)), "kB")
	set("correct_share", 1-prov.FailShare, "share")
	return res, nil
}
