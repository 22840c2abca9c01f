package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"jskernel/internal/serve"
	"jskernel/internal/telemetry"
)

// serveRun configures one end-to-end run of a serve workload.
type serveRun struct {
	// workload is serve-traced (plane-off daemon) or serve-plane
	// (plane-on daemon).
	workload string
	seed     int64
	seconds  float64
	// pop replaces the workload's population (tests use a small one).
	pop []serve.Request
	// corrupt, when non-nil, rewrites every reference body before the
	// timed window, so tests can show that the byte check bites.
	corrupt func([]byte) []byte
	// log, when non-nil, gets one line per pass.
	log io.Writer
}

// serveSetups is how many times a run sets the daemon up; the last one
// takes the load.
const serveSetups = 10

// nproc is the closed loop's width: clients = pool = GOMAXPROCS.
func nproc() int { return runtime.GOMAXPROCS(0) }

// daemon is one running jsk-serve instance and a client bound to it.
type daemon struct {
	srv    *serve.Server
	base   string
	hc     *http.Client
	client *serve.Client
}

// startDaemon builds a server, listens on a loopback port and returns
// a client limited to conns connections.
func startDaemon(cfg serve.Config, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := serve.New(cfg)
	s.Start(ln)
	base := "http://" + ln.Addr().String()
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return &daemon{srv: s, base: base, hc: hc, client: &serve.Client{BaseURL: base, HTTPClient: hc, MaxAttempts: 1}}, nil
}

// stop drains the server and closes the client's connections; it
// returns once the server's workers and listener have stopped.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.hc.CloseIdleConnections()
	return err
}

// scrape fetches /metricsz and checks it parses as an exposition.
func (d *daemon) scrape(ctx context.Context) ([]telemetry.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metricsz status %d", resp.StatusCode)
	}
	return telemetry.ParseExposition(string(data))
}

// references computes every population body on a fresh single-worker
// plane-off server, one request at a time.
func references(pop []serve.Request) ([][]byte, error) {
	d, err := startDaemon(serve.Config{Pool: 1}, 1)
	if err != nil {
		return nil, err
	}
	refs := make([][]byte, len(pop))
	for i, r := range pop {
		refs[i], err = d.client.EvalBytes(context.Background(), r)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("reference %s/%s: %w", r.Attack, r.Defense, err)
		}
	}
	return refs, d.stop()
}

// warmIndex picks the set-up request: the loopscan x jskernel-chrome
// cell when the population has it (a ~15 ms eval, long enough that
// concurrent warm-ups land on distinct workers), else the first one.
func warmIndex(pop []serve.Request) int {
	for i, r := range pop {
		if r.Attack == "loopscan" && r.Defense == "jskernel-chrome" {
			return i
		}
	}
	return 0
}

// setupDaemon starts a daemon, with the telemetry plane when plane is
// set, and warms every pool worker with one request, returning the
// daemon and how long that took.
func setupDaemon(pop []serve.Request, refs [][]byte, plane bool) (*daemon, time.Duration, error) {
	w := warmIndex(pop)
	start := time.Now()
	d, err := startDaemon(serve.Config{Pool: nproc(), Telemetry: plane}, nproc())
	if err != nil {
		return nil, 0, err
	}
	errs := make([]error, nproc())
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body, err := d.client.EvalBytes(context.Background(), pop[w])
			if err == nil && !bytes.Equal(body, refs[w]) {
				err = fmt.Errorf("warm-up body differs from the reference")
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return d, elapsed, nil
}

// clientStats is one closed-loop client's record. lat and scrapes hold
// the current pass's samples in raw milliseconds.
type clientStats struct {
	lat     []float64 // timing-cell eval latency, ms
	scrapes []float64 // scrape latency, ms
	evals   int
	good    int // correct evals this pass
	failed  int
	errs    []string
}

// runPass sends one pass, order over pop, from the closed-loop clients
// and waits for every reply.
func runPass(d *daemon, pop []serve.Request, want [][]byte, order []int, stats []clientStats) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range stats {
		wg.Add(1)
		go func(st *clientStats) {
			defer wg.Done()
			ctx := context.Background()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				t0 := time.Now()
				body, err := d.client.EvalBytes(ctx, pop[i])
				if pop[i].Reps > 0 {
					st.lat = append(st.lat, ms(time.Since(t0)))
				}
				st.evals++
				good := err == nil && bytes.Equal(body, want[i])
				if err != nil && len(st.errs) < 3 {
					st.errs = append(st.errs, err.Error())
				}
				if st.evals%scrapeEvery == 0 {
					t1 := time.Now()
					_, serr := d.scrape(ctx)
					st.scrapes = append(st.scrapes, ms(time.Since(t1)))
					if serr != nil {
						good = false
						if len(st.errs) < 3 {
							st.errs = append(st.errs, "scrape: "+serr.Error())
						}
					}
				}
				if good {
					st.good++
				} else {
					st.failed++
				}
			}
		}(&stats[c])
	}
	wg.Wait()
}

// runServe measures a serve workload end to end.
func runServe(sr serveRun, prov *provenance) (result, error) {
	pop := sr.pop
	if pop == nil {
		pop = population(sr.workload, sr.seed)
	}
	prov.CompositionDigest, prov.OrderDigest = populationDigests(sr.workload, sr.seed)

	refs, err := references(pop)
	if err != nil {
		return result{}, err
	}
	want := refs
	if sr.corrupt != nil {
		want = make([][]byte, len(refs))
		for i := range refs {
			want[i] = sr.corrupt(append([]byte(nil), refs[i]...))
		}
	}

	// Set up several daemons and keep the last one for the load. Each
	// set-up is followed by a gauge reading and divided by the box's
	// speed around it.
	g, err := newSpeedGauge()
	if err != nil {
		return result{}, err
	}
	var setupS, rawSetupS []float64
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return result{}, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
		var took time.Duration
		d, took, err = setupDaemon(pop, refs, sr.workload == wlServePlane)
		if err != nil {
			return result{}, err
		}
		speed, err := g.next()
		if err != nil {
			d.stop()
			return result{}, err
		}
		rawSetupS = append(rawSetupS, took.Seconds())
		setupS = append(setupS, took.Seconds()/speed)
	}
	defer d.stop()

	// The load: whole seeded passes until the timed window is filled.
	// Each pass is timed on its own and followed by a gauge reading;
	// allocation and RSS cover the passes only.
	stats := make([]clientStats, nproc())
	var lat, rawLat, scr, rates []float64
	var alloc rtDelta
	var timed time.Duration
	runtime.GC()
	rss := startRSS(10 * time.Millisecond)
	for pass := 0; pass == 0 || timed < time.Duration(sr.seconds*float64(time.Second)); pass++ {
		if pass > 0 {
			rss.resume()
		}
		before := readRuntime()
		start := time.Now()
		runPass(d, pop, want, passOrder(sr.seed, pass, len(pop)), stats)
		took := time.Since(start)
		alloc.add(before.to(readRuntime()))
		rss.cut()
		debug.FreeOSMemory()
		speed, err := g.next()
		if err != nil {
			return result{}, err
		}
		timed += took
		good := 0
		for c := range stats {
			st := &stats[c]
			good += st.good
			for _, v := range st.lat {
				rawLat = append(rawLat, v)
				lat = append(lat, v/speed)
			}
			for _, v := range st.scrapes {
				scr = append(scr, v/speed)
			}
			st.good, st.lat, st.scrapes = 0, st.lat[:0], st.scrapes[:0]
		}
		rates = append(rates, float64(good)/took.Seconds()*speed)
		if sr.log != nil {
			fmt.Fprintf(sr.log, "pass %d: %.1f s, %.2f evals/s raw, gauge %.1f ms, speed %.3f, peak %.0f MiB\n", pass, took.Seconds(), float64(good)/took.Seconds(), g.last, speed, rss.peaks[len(rss.peaks)-1])
		}
	}
	peak := rss.Stop()

	res := result{Metrics: map[string]metric{}}
	for _, st := range stats {
		res.Attempted += st.evals
		res.Failed += st.failed
		prov.Problems = append(prov.Problems, st.errs...)
	}
	if len(scr) == 0 {
		// Fewer than scrapeEvery evals per client: scrape once so the
		// metric exists, outside the timed window.
		t1 := time.Now()
		if _, err := d.scrape(context.Background()); err != nil {
			prov.Problems = append(prov.Problems, "scrape: "+err.Error())
		}
		scr = append(scr, ms(time.Since(t1)))
	}
	finish(&res, prov)
	p90, p90v, beyond := tailPercentile(lat, 0.90, 10)
	prov.Timed = timed.Seconds()
	prov.Passes = len(rates)
	prov.P90Percentile, prov.LatencyN, prov.P90Beyond = p90, len(lat), beyond
	prov.Scrapes = len(scr)
	prov.SetupRuns = len(setupS)
	prov.GaugeRefMs, prov.GaugeMs, prov.GaugeRuns = gaugeRefMs, g.medianMs(), len(g.readings)
	prov.RawP50Ms, prov.RawSetupS = median(rawLat), median(rawSetupS)

	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", median(setupS), "s")
	set("ops_per_s", median(rates), "1/s")
	set("p50_ms", median(lat), "ms")
	set("p90_ms", p90v, "ms")
	set("scrape_ms", median(scr), "ms")
	set("peak_rss_mb", peak, "MiB")
	set("alloc_kb_per_op", float64(alloc.allocBytes)/1024/float64(max(res.Attempted, 1)), "kB")
	set("correct_share", 1-prov.FailShare, "share")
	return res, nil
}
