package telemetry

import (
	"sync"

	"jskernel/internal/trace"
)

// PlaneConfig tunes the observability plane.
type PlaneConfig struct {
	// EventRing is the hub's replay ring capacity. Default 1024.
	EventRing int
	// Ledger tunes the cross-request forensics ledger.
	Ledger LedgerConfig
}

// EvalRecord is the worker-side telemetry of one evaluation: the
// kernel metrics registry to aggregate, the forensic payload to
// stream, and the signature fragments to feed the ledger. It is pure
// data, fully assembled on the worker after the response is decided,
// so applying it can not change what the client receives.
type EvalRecord struct {
	RequestID string
	Tenant    string
	// Scope is the ledger scope: the attack row the request named.
	Scope string
	// Metrics is the request's kernel metrics registry (nil when the
	// evaluation failed before tracing).
	Metrics *trace.Metrics
	// Forensics, when non-nil, is published verbatim as an EventForensics
	// payload.
	Forensics any
	// Fragments feed the ledger.
	Fragments []ClassFragment
}

// KernelAggregate is the cross-request fold of per-session kernel
// metrics registries: the totals /statsz reports, plus the
// distributions — dispatch-latency histogram, per-API
// enqueue counters, queue-depth high water — that the OpenMetrics
// exposition needs and a scalar fold cannot carry.
type KernelAggregate struct {
	Requests           uint64
	Installs           uint64
	Enqueued           uint64
	Confirmed          uint64
	Dispatched         uint64
	Shed               uint64
	Cancelled          uint64
	Expired            uint64
	Panics             uint64
	Quarantines        uint64
	Native             uint64
	PolicyDecisions    uint64
	InterposeCrossings uint64
	InterposeVirtualNs uint64
	DispatchLatency    trace.Histogram
	APIEnqueues        map[string]uint64
	QueueHighWater     int
}

// fold adds one request's registry.
func (a *KernelAggregate) fold(m *trace.Metrics) {
	if m == nil {
		return
	}
	a.Requests++
	a.Installs += m.Installs
	a.Enqueued += m.Enqueued
	a.Confirmed += m.Confirmed
	a.Dispatched += m.Dispatched
	a.Shed += m.Shed
	a.Cancelled += m.Cancelled
	a.Expired += m.Expired
	a.Panics += m.Panics
	a.Quarantines += m.Quarantines
	a.Native += m.Native
	a.PolicyDecisions += m.PolicyDecisions
	a.InterposeCrossings += m.InterposeCrossings
	a.InterposeVirtualNs += uint64(m.InterposeVirtual)
	lat := m.DispatchLatency
	for i, c := range lat.Counts {
		a.DispatchLatency.Counts[i] += c
	}
	a.DispatchLatency.Total += lat.Total
	a.DispatchLatency.Sum += lat.Sum
	if lat.Max > a.DispatchLatency.Max {
		a.DispatchLatency.Max = lat.Max
	}
	if a.APIEnqueues == nil {
		a.APIEnqueues = make(map[string]uint64)
	}
	for _, c := range m.APICounts() {
		a.APIEnqueues[c.Name] += c.Count
	}
	for _, d := range m.QueueHighWater() {
		if d.HighWater > a.QueueHighWater {
			a.QueueHighWater = d.HighWater
		}
	}
}

// clone deep-copies the aggregate for snapshots.
func (a *KernelAggregate) clone() KernelAggregate {
	out := *a
	out.APIEnqueues = make(map[string]uint64, len(a.APIEnqueues))
	for k, v := range a.APIEnqueues {
		out.APIEnqueues[k] = v
	}
	return out
}

// Plane is the live observability plane jsk-serve mounts when
// telemetry is on: one kernel aggregate, one span aggregate, one event
// hub, one ledger.
//
// Every submission applies inline on the submitting goroutine under
// one plane lock: fold the aggregates, observe the ledger, publish the
// events. The apply costs microseconds against an evaluation's
// milliseconds, so there is nothing to hide behind a queue, and holding
// one lock across the fold and the publishes keeps hub event order
// equal to fold order. Snapshots take the same lock; a scrape waits at
// most one apply and never blocks an evaluation for longer.
type Plane struct {
	Hub    *Hub
	Ledger *Ledger

	mu     sync.Mutex
	kernel KernelAggregate
	spans  SpanStats
}

// NewPlane builds the plane. Callers must Close it.
func NewPlane(cfg PlaneConfig) *Plane {
	return &Plane{
		Hub:    NewHub(cfg.EventRing),
		Ledger: NewLedger(cfg.Ledger),
	}
}

// SubmitEval folds one evaluation record into the kernel aggregate and
// the ledger, then publishes its forensic verdict and any campaign
// findings it completed.
func (p *Plane) SubmitEval(rec *EvalRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kernel.fold(rec.Metrics)
	if rec.Forensics != nil {
		p.Hub.Publish(EventForensics, rec.Forensics)
	}
	for _, c := range p.Ledger.Observe(rec.RequestID, rec.Tenant, rec.Scope, rec.Fragments) {
		p.Hub.Publish(EventCampaign, c)
	}
}

// SubmitSpan folds one completed request span and publishes it.
func (p *Plane) SubmitSpan(sp *Span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans.Fold(sp)
	p.Hub.Publish(EventSpan, sp)
}

// Barrier waits out the apply in progress, if any. A submission that
// has returned is already applied, so only callers racing concurrent
// submitters need it.
func (p *Plane) Barrier() {
	p.mu.Lock()
	p.mu.Unlock()
}

// KernelSnapshot returns a copy of the kernel aggregate.
func (p *Plane) KernelSnapshot() KernelAggregate {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kernel.clone()
}

// SpanSnapshot returns a copy of the span aggregate.
func (p *Plane) SpanSnapshot() SpanStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spans
}

// Close closes the hub so subscribers end their streams. Submissions
// after Close still fold; their events are counted as after-close
// publishes. Idempotent.
func (p *Plane) Close() { p.Hub.Close() }
