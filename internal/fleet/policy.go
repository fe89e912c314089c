package fleet

import "time"

// Policy is the coordinator's dispatch resilience configuration. The zero
// value is filled with production defaults by withDefaults. `dca serve`
// exposes DispatchTimeout, NodeRetries, HedgeAfter and ProbeInterval as
// flags; the other knobs keep their defaults there and are set only by
// library callers (tests, `dca fleet-bench -chaos`).
type Policy struct {
	// DispatchTimeout caps one batch dispatch attempt's wall clock — the
	// bound that turns a hung worker into a retryable failure instead of a
	// stalled run. <= 0 disables the cap (the request context still
	// applies).
	DispatchTimeout time.Duration
	// NodeRetries is how many times a transient dispatch failure retries
	// the same node before the node is declared suspect and the loops
	// re-route to their ring successors. Negative disables retries; the
	// default is 1.
	NodeRetries int
	// HedgeAfter is the straggler delay: a batch still unfinished after
	// this long is re-issued to its ring successor, first result wins —
	// safe because verdicts are deterministic and the merge dedups.
	// <= 0 disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the background prober's cadence and the initial
	// probe backoff for a freshly suspected node (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 2s).
	ProbeTimeout time.Duration
	// ProbeBackoffCap bounds the exponential probe backoff for nodes that
	// keep failing probes (default 30s).
	ProbeBackoffCap time.Duration
	// RetryBase seeds the decorrelated-jitter backoff between same-node
	// retries, and before re-placing loops a worker omitted (default 25ms).
	RetryBase time.Duration
	// RetryCap bounds that backoff (default 2s).
	RetryCap time.Duration
	// MaxRetryAfter caps how long a worker's Retry-After hint is honored
	// before retrying it (default 5s) — a confused worker must not park
	// the coordinator.
	MaxRetryAfter time.Duration
	// Jitter overrides the randomness source: it returns a uniform value
	// in [0, max). nil means math/rand; tests inject determinism.
	Jitter func(max int64) int64
}

func (p Policy) withDefaults() Policy {
	if p.NodeRetries == 0 {
		p.NodeRetries = 1
	}
	if p.NodeRetries < 0 {
		p.NodeRetries = 0
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = time.Second
	}
	if p.ProbeTimeout <= 0 {
		p.ProbeTimeout = 2 * time.Second
	}
	if p.ProbeBackoffCap <= 0 {
		p.ProbeBackoffCap = 30 * time.Second
	}
	if p.RetryBase <= 0 {
		p.RetryBase = 25 * time.Millisecond
	}
	if p.RetryCap <= 0 {
		p.RetryCap = 2 * time.Second
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = 5 * time.Second
	}
	return p
}

// backoffStep advances a decorrelated-jitter backoff: the next sleep is
// uniform in [base, 3*prev), capped — the AWS "decorrelated jitter"
// schedule, which spreads retrying coordinators apart instead of marching
// them in synchronized exponential waves.
func (p Policy) backoffStep(jitter func(int64) int64, prev time.Duration) time.Duration {
	if prev < p.RetryBase {
		prev = p.RetryBase
	}
	span := int64(3*prev - p.RetryBase)
	d := p.RetryBase
	if span > 0 {
		d += time.Duration(jitter(span))
	}
	if d > p.RetryCap {
		d = p.RetryCap
	}
	return d
}
