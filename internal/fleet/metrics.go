package fleet

import "dca/internal/obs"

// Metrics are the fleet's instruments, registered next to the server's on
// one shared registry so /metrics and /stats cover dispatch and peer-cache
// behaviour without a second scrape target.
type Metrics struct {
	// Dispatches counts batches sent to each worker node (label "node" is
	// bounded by the configured fleet size, within the registry's
	// cardinality policy).
	Dispatches *obs.CounterVec
	// Redispatches counts batches re-routed to a ring successor after
	// their owner failed mid-run.
	Redispatches *obs.Counter
	// NodeRetries counts same-node retries of transient dispatch failures
	// (the attempts between "first failure" and "node suspect").
	NodeRetries *obs.Counter
	// Hedges / HedgeWins count straggler mitigation: batches re-issued to
	// the ring successor after the hedge delay, and the subset where the
	// hedge finished first.
	Hedges    *obs.Counter
	HedgeWins *obs.Counter
	// Probes / ProbeFailures / Rejoins count the health prober's work:
	// /healthz probes of out-of-rotation nodes, the ones that failed, and
	// nodes re-admitted to dispatch rotation.
	Probes        *obs.Counter
	ProbeFailures *obs.Counter
	Rejoins       *obs.Counter
	// FallbackRuns / FallbackLoops count graceful degradation: hand-offs
	// where no live worker remained and the coordinator analyzed in-process,
	// and the loops those hand-offs covered.
	FallbackRuns  *obs.Counter
	FallbackLoops *obs.Counter
	// PeerHits / PeerMisses / PeerErrors / PeerWrites count peer
	// verdict-cache traffic: hits served by a ring owner, owner lookups
	// that missed, transport or protocol failures (degraded to local
	// misses), and write-throughs on fresh verdicts.
	PeerHits   *obs.Counter
	PeerMisses *obs.Counter
	PeerErrors *obs.Counter
	PeerWrites *obs.Counter
}

// NewMetrics registers the fleet instruments on reg, plus a ring-size
// gauge sampling the given ring.
func NewMetrics(reg *obs.Registry, ring *Ring) *Metrics {
	m := &Metrics{
		Dispatches: reg.CounterVec("dca_fleet_dispatch_total",
			"Loop batches dispatched, by worker node.", "node"),
		Redispatches: reg.Counter("dca_fleet_redispatch_total",
			"Batches re-routed to a ring successor after a worker failure."),
		NodeRetries: reg.Counter("dca_fleet_node_retries_total",
			"Same-node retries of transient dispatch failures."),
		Hedges: reg.Counter("dca_fleet_hedges_total",
			"Straggling batches re-issued to the ring successor."),
		HedgeWins: reg.Counter("dca_fleet_hedge_wins_total",
			"Hedged dispatches where the hedge finished first."),
		Probes: reg.Counter("dca_fleet_probes_total",
			"Health probes of out-of-rotation nodes."),
		ProbeFailures: reg.Counter("dca_fleet_probe_failures_total",
			"Health probes that failed (node stays out of rotation)."),
		Rejoins: reg.Counter("dca_fleet_rejoins_total",
			"Nodes re-admitted to dispatch rotation."),
		FallbackRuns: reg.Counter("dca_fleet_fallback_runs_total",
			"Loop batches degraded to in-process analysis (no live workers)."),
		FallbackLoops: reg.Counter("dca_fleet_fallback_loops_total",
			"Loops analyzed in-process by the local fallback."),
		PeerHits: reg.Counter("dca_fleet_peer_hits_total",
			"Peer verdict-cache lookups served by a ring owner."),
		PeerMisses: reg.Counter("dca_fleet_peer_misses_total",
			"Peer verdict-cache lookups the ring owner missed too."),
		PeerErrors: reg.Counter("dca_fleet_peer_errors_total",
			"Peer verdict-cache requests that failed (degraded to local misses)."),
		PeerWrites: reg.Counter("dca_fleet_peer_writes_total",
			"Fresh verdicts written through to their ring owner."),
	}
	reg.GaugeFunc("dca_fleet_ring_nodes",
		"Distinct nodes on the consistent-hash ring.",
		func() float64 { return float64(ring.Size()) })
	return m
}

// RegisterMembership adds the node-state gauges, sampling ms live: one
// gauge per lifecycle state, so `live + suspect + dead + probing == ring
// size` holds at every scrape.
func RegisterMembership(reg *obs.Registry, ms *Membership) {
	sample := func(s NodeState) func() float64 {
		return func() float64 { return float64(ms.Counts()[s]) }
	}
	reg.GaugeFunc("dca_fleet_nodes_live",
		"Fleet nodes in dispatch rotation.", sample(NodeLive))
	reg.GaugeFunc("dca_fleet_nodes_suspect",
		"Fleet nodes out of rotation after dispatch failures, awaiting probe.", sample(NodeSuspect))
	reg.GaugeFunc("dca_fleet_nodes_dead",
		"Fleet nodes that also failed health probes (backoff doubling).", sample(NodeDead))
	reg.GaugeFunc("dca_fleet_nodes_probing",
		"Fleet nodes with a health probe in flight.", sample(NodeProbing))
}
