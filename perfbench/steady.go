package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady repeats a workload (every workload when name is empty) n
// times, each in a fresh process with seeds seed, seed+1, ..., and
// prints each metric's median and quartile spread (q3-q1)/median, the
// statistic that decides whether a metric is steady enough for its
// bound.
func runSteady(name string, seed int64, seconds float64, traceOn, n int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	names := workloads
	if name != "" {
		if !validWorkload(name) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		names = []string{name}
	}
	status := 0
	for _, w := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traceOn))
			cmd.Stderr = io.Discard
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w, s, err)
				status = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: result line: %v\n", w, s, err)
				status = 1
				continue
			}
			if !res.Correct || res.Failed != 0 {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: correct=%t failed=%d/%d\n", w, s, res.Correct, res.Failed, res.Attempted)
				status = 1
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(stderr, "perfbench: %s seed %d done\n", w, s)
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stdout, "%s: %d runs from seed %d, %g s each\n", w, n, seed, seconds)
		fmt.Fprintf(stdout, "  %-28s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, k := range keys {
			q1, med, q3 := quartiles(values[k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(stdout, "  %-28s %14.6g %14.6g %14.6g %7.2f%% %s %v\n", k, med, q1, q3, 100*spread, units[k], compact(values[k]))
		}
	}
	return status
}

// compact renders run values with four significant digits.
func compact(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', 4, 64))
	}
	return "[" + b.String() + "]"
}
