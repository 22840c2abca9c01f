package telemetry

// Exposition assembly for the plane-owned aggregates. The serve layer
// appends its own service families (admissions, sheds, breaker state,
// pool occupancy) and calls WriteExposition; everything kernel- or
// plane-shaped is rendered here so the metric names stay in one place.

// Families renders the kernel aggregate.
func (a *KernelAggregate) Families() []Family {
	fams := []Family{
		Counter("jsk_kernel_requests", "Evaluations whose kernel metrics were folded into this aggregate.", a.Requests),
		Counter("jsk_kernel_installs", "Event-handler installs observed by the kernel.", a.Installs),
		Counter("jsk_kernel_enqueued", "Events enqueued by the kernel.", a.Enqueued),
		Counter("jsk_kernel_confirmed", "Events confirmed by policy.", a.Confirmed),
		Counter("jsk_kernel_dispatched", "Events dispatched to handlers.", a.Dispatched),
		Counter("jsk_kernel_shed", "Events shed by overload or policy.", a.Shed),
		Counter("jsk_kernel_cancelled", "Events cancelled before dispatch.", a.Cancelled),
		Counter("jsk_kernel_expired", "Events expired before dispatch.", a.Expired),
		Counter("jsk_kernel_panics", "Handler panics absorbed by the kernel.", a.Panics),
		Counter("jsk_kernel_quarantines", "Scopes quarantined after repeated faults.", a.Quarantines),
		Counter("jsk_kernel_native", "Native-bridge transitions observed.", a.Native),
		Counter("jsk_kernel_policy_decisions", "Policy decisions taken.", a.PolicyDecisions),
		Counter("jsk_kernel_interpose_crossings", "Kernel-boundary interposition crossings.", a.InterposeCrossings),
		Gauge("jsk_kernel_interpose_virtual_seconds",
			"Virtual time charged to interposition, in seconds.",
			float64(a.InterposeVirtualNs)/1e9),
		LabeledCounter("jsk_kernel_api_enqueues", "Events enqueued per web API kind.", "api", a.APIEnqueues),
		Gauge("jsk_kernel_queue_high_water", "Highest per-scope queue depth observed across requests.", float64(a.QueueHighWater)),
		HistogramFamily("jsk_kernel_dispatch_latency_seconds",
			"Virtual time between event enqueue and dispatch, in virtual seconds.",
			&a.DispatchLatency),
	}
	return fams
}

// Families renders the plane's own health: hub publish/eviction
// counters and ledger totals.
func (p *Plane) Families() []Family {
	published, evicted := p.Hub.Counts()
	fams := []Family{
		LabeledCounter("jsk_events_published", "Events published to the hub per type.", "type", published),
		Counter("jsk_events_evicted", "Events evicted from the hub replay ring.", evicted),
		Counter("jsk_ledger_observed_requests", "Requests folded into the forensics ledger.", p.Ledger.observedCount()),
		Counter("jsk_ledger_campaigns", "Campaign findings raised by the forensics ledger.", p.Ledger.Campaigns()),
	}
	return fams
}

func (l *Ledger) observedCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.observed
}
