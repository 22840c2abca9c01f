// Command jsk-bench measures the wall-clock effect of the parallel
// experiment runner: it renders Table I serially (-parallel 1) and on a
// worker pool, checks the two outputs are byte-identical, and writes
// the timings to a JSON report.
//
// With -obs it instead measures the streaming observability tax: the
// Dromaeo suite with telemetry off versus fully on (trace session,
// browser observability events, profiler and detectors attached),
// checking the rendered results are byte-identical either way.
//
// With -serve it benchmarks the jsk-serve daemon: sustained-load
// throughput and client-observed latency percentiles, a deliberate
// overload run against a pool-1 queue-1 server showing the shed rate
// rise, and the sustained load again with the telemetry plane on,
// while every served response stays byte-identical to the unloaded
// plane-off reference.
//
// Usage:
//
//	jsk-bench                      # quick-scale Table I, pool width = 8
//	jsk-bench -parallel 4 -reps 10
//	jsk-bench -out BENCH_parallel.json
//	jsk-bench -obs                 # Dromaeo obs-on vs obs-off -> BENCH_obs.json
//	jsk-bench -serve               # jsk-serve load + overload -> BENCH_serve.json
//
// The report records the machine's CPU count: on a single-CPU host the
// pool cannot beat the serial loop (speedup ≈ 1.0 minus scheduling
// overhead), and the honest number is still worth recording — the
// byte-identity check is what proves the pool safe to use wherever
// cores exist.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"jskernel/internal/expr"
	"jskernel/internal/obs"
	"jskernel/internal/trace"
)

// Report is the JSON schema of the benchmark output.
type Report struct {
	// Experiment identifies the timed workload.
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	// CPUs is runtime.NumCPU; GOMAXPROCS the effective scheduler width.
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// ParallelWidth is the worker-pool width the parallel run used.
	ParallelWidth int     `json:"parallel_width"`
	SerialMs      float64 `json:"serial_ms"`
	ParallelMs    float64 `json:"parallel_ms"`
	// Speedup is serial_ms / parallel_ms.
	Speedup float64 `json:"speedup"`
	// Identical reports the byte-identity check of the two rendered
	// tables — the determinism contract the runner exists to keep.
	Identical bool `json:"outputs_byte_identical"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jsk-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("jsk-bench", flag.ContinueOnError)
	var (
		parallel = fs.Int("parallel", 8, "worker-pool width for the parallel run")
		reps     = fs.Int("reps", 0, "override the repetition budget")
		paper    = fs.Bool("paper", false, "paper-scale parameters (slow); default is quick scale")
		obsMode  = fs.Bool("obs", false, "measure the observability tax instead: Dromaeo with telemetry off vs fully on")
		srvMode  = fs.Bool("serve", false, "measure jsk-serve instead: sustained throughput/latency plus an overload run")
		srvReqs  = fs.Int("serve-requests", 200, "requests per serve benchmark phase (with -serve)")
		out      = fs.String("out", "", "report output path (default BENCH_parallel.json; BENCH_obs.json with -obs; BENCH_serve.json with -serve)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := expr.QuickConfig()
	if *paper {
		cfg = expr.PaperConfig()
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *out == "" {
		switch {
		case *obsMode:
			*out = "BENCH_obs.json"
		case *srvMode:
			*out = "BENCH_serve.json"
		default:
			*out = "BENCH_parallel.json"
		}
	}
	if *obsMode {
		return runObs(cfg, *out)
	}
	if *srvMode {
		return runServe(*srvReqs, *out)
	}

	render := func(width int) ([]byte, time.Duration, error) {
		cfg.Parallel = width
		start := time.Now()
		res, err := expr.Table1(cfg)
		elapsed := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		var buf bytes.Buffer
		if err := res.Table.Render(&buf); err != nil {
			return nil, 0, err
		}
		return buf.Bytes(), elapsed, nil
	}

	fmt.Fprintf(os.Stderr, "jsk-bench: Table I serial (seed %d, reps %d)...\n", cfg.Seed, cfg.Reps)
	serialOut, serialDur, err := render(1)
	if err != nil {
		return fmt.Errorf("serial run: %w", err)
	}
	fmt.Fprintf(os.Stderr, "jsk-bench: Table I parallel x%d...\n", *parallel)
	parOut, parDur, err := render(*parallel)
	if err != nil {
		return fmt.Errorf("parallel run: %w", err)
	}

	rep := Report{
		Experiment:    "table1",
		Seed:          cfg.Seed,
		Reps:          cfg.Reps,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		ParallelWidth: *parallel,
		SerialMs:      float64(serialDur.Microseconds()) / 1000,
		ParallelMs:    float64(parDur.Microseconds()) / 1000,
		Identical:     bytes.Equal(serialOut, parOut),
	}
	if rep.ParallelMs > 0 {
		rep.Speedup = rep.SerialMs / rep.ParallelMs
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("serial %.0f ms, parallel(x%d) %.0f ms, speedup %.2fx on %d CPU(s); outputs identical: %v -> %s\n",
		rep.SerialMs, rep.ParallelWidth, rep.ParallelMs, rep.Speedup, rep.CPUs, rep.Identical, *out)
	if !rep.Identical {
		return fmt.Errorf("parallel output diverged from serial — determinism contract broken")
	}
	return nil
}

// ObsReport is the JSON schema of the -obs benchmark output.
type ObsReport struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// OffMs runs Dromaeo with no telemetry; OnMs runs it with a trace
	// session, browser observability events, profiler and detectors.
	OffMs float64 `json:"obs_off_ms"`
	OnMs  float64 `json:"obs_on_ms"`
	// OverheadPct is (on - off) / off.
	OverheadPct float64 `json:"overhead_pct"`
	// Records is the number of trace records the obs-on run streamed.
	Records int `json:"records_streamed"`
	// Identical reports that the rendered Dromaeo results were
	// byte-identical with telemetry on and off — observability must
	// never perturb an experiment.
	Identical bool `json:"outputs_byte_identical"`
}

// runObs times Dromaeo with telemetry off and fully on, best of three
// runs per side, and checks result byte-identity.
func runObs(cfg expr.Config, out string) error {
	render := func(obsOn bool) ([]byte, int, time.Duration, error) {
		best := time.Duration(1<<62 - 1)
		var outBytes []byte
		var records int
		for i := 0; i < 3; i++ {
			c := cfg
			if obsOn {
				s := trace.NewSession()
				s.SetRetain(false)
				s.Attach(obs.NewProfiler())
				s.Attach(obs.NewDetectors(obs.DefaultDetectorConfig()))
				c.Trace = s
				c.Obs = true
			}
			start := time.Now()
			rep, err := expr.Dromaeo(c)
			elapsed := time.Since(start)
			if err != nil {
				return nil, 0, 0, err
			}
			var buf bytes.Buffer
			if err := rep.Table.Render(&buf); err != nil {
				return nil, 0, 0, err
			}
			outBytes = buf.Bytes()
			if obsOn {
				c.Trace.Close()
				records = c.Trace.Len()
			}
			if elapsed < best {
				best = elapsed
			}
		}
		return outBytes, records, best, nil
	}

	// One untimed pass warms allocators and caches so the first timed
	// side is not unfairly cold.
	if _, err := expr.Dromaeo(cfg); err != nil {
		return fmt.Errorf("warmup run: %w", err)
	}
	fmt.Fprintln(os.Stderr, "jsk-bench: Dromaeo with telemetry off...")
	offOut, _, offDur, err := render(false)
	if err != nil {
		return fmt.Errorf("obs-off run: %w", err)
	}
	fmt.Fprintln(os.Stderr, "jsk-bench: Dromaeo with telemetry on...")
	onOut, records, onDur, err := render(true)
	if err != nil {
		return fmt.Errorf("obs-on run: %w", err)
	}

	rep := ObsReport{
		Experiment: "dromaeo",
		Seed:       cfg.Seed,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OffMs:      float64(offDur.Microseconds()) / 1000,
		OnMs:       float64(onDur.Microseconds()) / 1000,
		Records:    records,
		Identical:  bytes.Equal(offOut, onOut),
	}
	if rep.OffMs > 0 {
		rep.OverheadPct = (rep.OnMs - rep.OffMs) / rep.OffMs * 100
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("obs off %.1f ms, obs on %.1f ms (%+.1f%%, %d records streamed); outputs identical: %v -> %s\n",
		rep.OffMs, rep.OnMs, rep.OverheadPct, rep.Records, rep.Identical, out)
	if !rep.Identical {
		return fmt.Errorf("telemetry changed the Dromaeo results — observability must never perturb execution")
	}
	return nil
}
