package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"jskernel/internal/expr/runner"
	"jskernel/internal/serve"
)

// ServeReport is the JSON schema of the -serve benchmark output. It
// records three runs against live jsk-serve daemons: a sustained run
// sized to the pool, an overload run that deliberately outruns a
// pool-1 queue-1 server, and the sustained run again with the
// observability plane on. The number that matters alongside throughput
// is CorrectPct: degradation must shed load, never accuracy, and the
// plane must never leak into response bytes, so every run requires
// every successful response to byte-match the unloaded plane-off
// reference — 100% or the benchmark fails.
type ServeReport struct {
	Experiment string `json:"experiment"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Sustained ServePhase `json:"sustained"`
	Overload  ServePhase `json:"overload"`
	// Plane is the sustained load with the observability plane on.
	Plane ServePhase `json:"plane"`
	// PlaneOverheadPct is the throughput cost of the plane over the
	// plane-off sustained run: (sustained - plane) / sustained * 100.
	PlaneOverheadPct float64 `json:"plane_overhead_pct"`
}

// ServePhase is one load phase of the serve benchmark.
type ServePhase struct {
	Pool       int `json:"pool"`
	QueueDepth int `json:"queue_depth"`
	Clients    int `json:"clients"`
	Requests   int `json:"requests"`
	Completed  int `json:"completed"`
	Shed       int `json:"shed"`
	// ShedRate is Shed / Requests: ~0 sustained, rising under overload.
	ShedRate float64 `json:"shed_rate"`
	// CorrectPct is the fraction of completed responses byte-identical
	// to the unloaded reference. Anything below 100 is a contract break.
	CorrectPct    float64 `json:"correct_pct"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// benchCell is the workload every benchmark request evaluates: one
// deterministic Table I cell, so correctness is plain byte equality.
func benchCell() serve.Request {
	return serve.Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 42, Reps: 1}
}

// runServe drives the serve benchmark and writes the report.
func runServe(requests int, out string) error {
	// Unloaded reference: one warm server, one request.
	ref, err := referenceBody()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	pool := runtime.GOMAXPROCS(0)
	fmt.Fprintf(os.Stderr, "jsk-bench: serve sustained (%d requests, pool %d)...\n", requests, pool)
	sustained, err := runServePhase(serve.Config{Pool: pool, QueueDepth: 4 * pool}, 2*pool, requests, ref)
	if err != nil {
		return fmt.Errorf("sustained: %w", err)
	}
	fmt.Fprintf(os.Stderr, "jsk-bench: serve overload (%d requests, pool 1, queue 1)...\n", requests)
	overload, err := runServePhase(serve.Config{Pool: 1, QueueDepth: 1}, 32, requests, ref)
	if err != nil {
		return fmt.Errorf("overload: %w", err)
	}
	fmt.Fprintf(os.Stderr, "jsk-bench: serve plane on (%d requests, pool %d)...\n", requests, pool)
	plane, err := runServePhase(serve.Config{Pool: pool, QueueDepth: 4 * pool, Telemetry: true}, 2*pool, requests, ref)
	if err != nil {
		return fmt.Errorf("plane: %w", err)
	}

	rep := ServeReport{
		Experiment: "serve",
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Sustained:  sustained,
		Overload:   overload,
		Plane:      plane,
	}
	if sustained.ThroughputRPS > 0 {
		rep.PlaneOverheadPct = (sustained.ThroughputRPS - plane.ThroughputRPS) / sustained.ThroughputRPS * 100
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	for _, ph := range []struct {
		name  string
		phase ServePhase
	}{{"sustained", sustained}, {"overload", overload}, {"plane", plane}} {
		fmt.Printf("%-10s %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, shed %.0f%%, correct %.0f%%\n",
			ph.name+":", ph.phase.ThroughputRPS, ph.phase.P50Ms, ph.phase.P95Ms, ph.phase.P99Ms,
			ph.phase.ShedRate*100, ph.phase.CorrectPct)
		if ph.phase.CorrectPct < 100 {
			return fmt.Errorf("%s responses diverged from the plane-off reference — load or telemetry leaked into response bytes", ph.name)
		}
	}
	fmt.Printf("plane overhead %.1f%% of sustained throughput -> %s\n", rep.PlaneOverheadPct, out)
	if overload.ShedRate <= sustained.ShedRate {
		return fmt.Errorf("overload run shed no more than sustained (%.2f <= %.2f) — admission control not engaging",
			overload.ShedRate, sustained.ShedRate)
	}
	return nil
}

// referenceBody computes the fault-free response bytes for benchCell.
func referenceBody() ([]byte, error) {
	s, client, err := startServer(serve.Config{Pool: 1})
	if err != nil {
		return nil, err
	}
	defer stopServer(s)
	return client.EvalBytes(context.Background(), benchCell())
}

// runServePhase fires requests concurrent benchmark clients at a fresh
// server and aggregates outcome counts and client-observed latency.
func runServePhase(cfg serve.Config, clients, requests int, ref []byte) (ServePhase, error) {
	s, client, err := startServer(cfg)
	if err != nil {
		return ServePhase{}, err
	}
	defer stopServer(s)
	client.MaxAttempts = 1

	type outcome struct {
		latency time.Duration
		ok      bool
		correct bool
		shed    bool
		err     error
	}
	start := time.Now()
	results := runner.Map(clients, requests, func(int) outcome {
		t0 := time.Now()
		body, err := client.EvalBytes(context.Background(), benchCell())
		lat := time.Since(t0)
		if err != nil {
			if re, ok := err.(serve.RetryableError); ok && re.Retryable() {
				return outcome{latency: lat, shed: true}
			}
			return outcome{latency: lat, err: err}
		}
		return outcome{latency: lat, ok: true, correct: bytes.Equal(body, ref)}
	})
	elapsed := time.Since(start)

	ph := ServePhase{
		Pool:       cfg.Pool,
		QueueDepth: cfg.QueueDepth,
		Clients:    clients,
		Requests:   requests,
	}
	var latencies []time.Duration
	correct := 0
	for _, r := range results {
		switch {
		case r.err != nil:
			return ph, fmt.Errorf("untyped benchmark failure: %v", r.err)
		case r.shed:
			ph.Shed++
		default:
			ph.Completed++
			latencies = append(latencies, r.latency)
			if r.correct {
				correct++
			}
		}
	}
	ph.ShedRate = float64(ph.Shed) / float64(requests)
	if ph.Completed > 0 {
		ph.CorrectPct = float64(correct) / float64(ph.Completed) * 100
	}
	ph.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	if elapsed > 0 {
		ph.ThroughputRPS = float64(ph.Completed) / elapsed.Seconds()
	}
	ph.P50Ms = percentileMs(latencies, 0.50)
	ph.P95Ms = percentileMs(latencies, 0.95)
	ph.P99Ms = percentileMs(latencies, 0.99)
	return ph, nil
}

// percentileMs returns the q-quantile of the (unsorted) latency set in
// milliseconds, 0 when empty.
func percentileMs(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1000
}

func startServer(cfg serve.Config) (*serve.Server, *serve.Client, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	s := serve.New(cfg)
	s.Start(ln)
	return s, &serve.Client{BaseURL: "http://" + ln.Addr().String()}, nil
}

func stopServer(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}
