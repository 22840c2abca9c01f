package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The speed gauge. The reference box moves between speed states for
// memory-heavy work that last from seconds to minutes and differ by up
// to about 1.4x (see README.md), so a time measured in one run says as
// much about the box's state as about the program. The gauge is a fixed
// kernel, written here and independent of the code under test, that
// allocates small objects, chases pointers and updates a map on every
// core, like the simulator does. A workload runs it in a child process
// between its timed windows; each window's times are divided by the
// box's speed around it,
//
//	speed = (gauge before + gauge after) / 2 / gaugeRefMs,
//
// so a time metric reads as milliseconds on the reference box in its
// fast state. The code under test cannot change the gauge, so a change
// that makes the program slower shows in full. Raw medians travel in
// provenance.

// gaugeRefMs is the gauge's time on the reference box (2-vCPU Intel
// Xeon VM, go1.24) in a fast period.
const gaugeRefMs = 150.0

const (
	gaugeReps  = 10
	gaugeNodes = 100_000
	// gaugeSum is what every gauge worker computes; a different value
	// means the kernel was not run as written.
	gaugeSum = 50_001_510_230
)

type gaugeNode struct {
	next *gaugeNode
	v    [6]int
}

// gaugeWork is one gauge worker: gaugeReps rounds of building a list
// of gaugeNodes fresh nodes, updating a small map and walking the list.
func gaugeWork() int {
	total := 0
	for r := 0; r < gaugeReps; r++ {
		s := 0
		m := map[int]int{}
		var head *gaugeNode
		for i := 0; i < gaugeNodes; i++ {
			n := &gaugeNode{next: head}
			n.v[0] = i
			head = n
			m[i&1023] += i
			s += i * i % 7
		}
		for n := head; n != nil; n = n.next {
			s += n.v[0]
		}
		total += s + len(m)
	}
	return total
}

// runGaugeProbe runs the gauge on every core of this fresh process and
// prints its wall time in ms.
func runGaugeProbe(stdout, stderr io.Writer) int {
	workers := runtime.GOMAXPROCS(0)
	sums := make([]int, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w] = gaugeWork()
		}(w)
	}
	wg.Wait()
	took := ms(time.Since(start))
	for _, s := range sums {
		if s != gaugeSum {
			fmt.Fprintf(stderr, "perfbench: speed gauge computed %d, want %d\n", s, gaugeSum)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%g\n", took)
	return 0
}

// gaugeMs takes one gauge reading in a child process and waits for it.
// A fresh process starts from the same empty heap every time, so the
// reading does not depend on what the workload keeps live.
func gaugeMs() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--gauge-probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("speed gauge: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("speed gauge output: %w", err)
	}
	return v, nil
}

// speedGauge brackets timed windows with gauge readings.
type speedGauge struct {
	last     float64
	readings []float64
}

// newSpeedGauge takes the first reading.
func newSpeedGauge() (*speedGauge, error) {
	g := &speedGauge{}
	_, err := g.next()
	return g, err
}

// next takes a reading after a window and returns the box's speed over
// it: the mean of the readings before and after, over gaugeRefMs.
// Times from the window are divided by it, rates multiplied.
func (g *speedGauge) next() (float64, error) {
	v, err := gaugeMs()
	if err != nil {
		return 0, err
	}
	prev := g.last
	if len(g.readings) == 0 {
		prev = v
	}
	g.last = v
	g.readings = append(g.readings, v)
	return (prev + v) / 2 / gaugeRefMs, nil
}

// median of the readings so far, in ms.
func (g *speedGauge) medianMs() float64 { return median(g.readings) }
