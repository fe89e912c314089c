package fleet

import (
	"sync"
	"time"
)

// NodeState is one step of the fleet's node lifecycle:
//
//	live ──(dispatch failures exhaust NodeRetries)──▶ suspect
//	suspect ──(probe fails)──▶ dead ──(probe fails)──▶ dead (longer backoff)
//	suspect/dead ──(probe in flight)──▶ probing
//	probing ──(probe succeeds)──▶ live
//
// Only live nodes are in dispatch rotation. Suspect and dead differ only
// in how aggressively the prober revisits them: a suspect node failed a
// dispatch moments ago and is probed on the short initial backoff; a dead
// node has also failed probes, so its backoff doubles (with jitter) up to
// the cap. Neither state is permanent — that is the whole point.
type NodeState int32

const (
	NodeLive NodeState = iota
	NodeSuspect
	NodeDead
	NodeProbing
)

var nodeStateNames = [...]string{"live", "suspect", "dead", "probing"}

func (s NodeState) String() string { return nodeStateNames[s] }

// nodeHealth is one node's lifecycle record.
type nodeHealth struct {
	state NodeState
	// backoff is the current probe backoff; it doubles on each failed
	// probe and resets when the node rejoins.
	backoff time.Duration
	// next is the earliest instant the prober should revisit this node.
	next time.Time
	// preProbe remembers whether a probing node came from suspect or dead,
	// so a failed probe can demote suspect → dead.
	preProbe NodeState
}

// Membership tracks the lifecycle state of every fleet node. It is owned
// by a Coordinator and outlives individual runs: a node that died during
// one analysis is probed back into rotation for — or even during — the
// next, instead of staying dead until a process restart.
type Membership struct {
	mu    sync.Mutex
	nodes map[string]*nodeHealth

	probeBase time.Duration // initial probe backoff
	probeCap  time.Duration // backoff ceiling
	jitter    func(int64) int64
}

// newMembership builds an all-live membership over nodes. probeBase and
// probeCap bound the probe backoff; jitter is the coordinator's injectable
// randomness source.
func newMembership(nodes []string, probeBase, probeCap time.Duration, jitter func(int64) int64) *Membership {
	m := &Membership{
		nodes:     make(map[string]*nodeHealth, len(nodes)),
		probeBase: probeBase,
		probeCap:  probeCap,
		jitter:    jitter,
	}
	for _, n := range nodes {
		m.nodes[n] = &nodeHealth{state: NodeLive}
	}
	return m
}

// State returns a node's current lifecycle state (unknown nodes read as
// dead — they are not in rotation either way).
func (m *Membership) State(node string) NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.nodes[node]; ok {
		return h.state
	}
	return NodeDead
}

// Excluded returns the set of nodes currently out of dispatch rotation —
// everything not live. The ring's Owner lookup takes it as its dead set.
// The returned map is a fresh copy; callers may keep and extend it.
func (m *Membership) Excluded() map[string]bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]bool)
	for n, h := range m.nodes {
		if h.state != NodeLive {
			out[n] = true
		}
	}
	return out
}

// Counts returns how many nodes sit in each lifecycle state, in state
// order (live, suspect, dead, probing) — the node-state gauges sample it.
func (m *Membership) Counts() [4]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var c [4]int
	for _, h := range m.nodes {
		c[h.state]++
	}
	return c
}

// Suspect takes a node out of rotation after its dispatch retries were
// exhausted, reporting whether the node actually transitioned. The prober
// revisits it after the initial backoff. Probing nodes stay probing (the
// in-flight probe will settle the state); already suspect or dead nodes
// keep their (longer) schedule.
func (m *Membership) Suspect(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.nodes[node]
	if !ok || h.state != NodeLive {
		return false
	}
	h.state = NodeSuspect
	h.backoff = m.probeBase
	h.next = time.Now().Add(m.jittered(h.backoff))
	return true
}

// MarkLive returns a node to dispatch rotation and resets its probe
// backoff — a successful probe, or a successful dispatch that doubled as
// one. It reports whether the node actually transitioned (false when it
// was live already), so callers count rejoins exactly once.
func (m *Membership) MarkLive(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.nodes[node]
	if !ok || h.state == NodeLive {
		return false
	}
	h.state = NodeLive
	h.backoff = 0
	h.next = time.Time{}
	return true
}

// due returns the out-of-rotation nodes whose next-probe instant has
// passed, marking each probing so concurrent probers never double-probe.
func (m *Membership) due(now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for n, h := range m.nodes {
		if (h.state == NodeSuspect || h.state == NodeDead) && !h.next.After(now) {
			h.preProbe = h.state
			h.state = NodeProbing
			out = append(out, n)
		}
	}
	return out
}

// probeFailed settles a probing node after a failed probe: it becomes
// dead, its backoff doubles (jittered) up to the cap, and the prober will
// revisit it then.
func (m *Membership) probeFailed(node string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.nodes[node]
	if !ok || h.state != NodeProbing {
		return
	}
	h.state = NodeDead
	if h.backoff <= 0 {
		h.backoff = m.probeBase
	} else if h.backoff < m.probeCap {
		h.backoff *= 2
		if h.backoff > m.probeCap {
			h.backoff = m.probeCap
		}
	}
	h.next = time.Now().Add(m.jittered(h.backoff))
}

// jittered spreads d across [d, 2d) so a fleet of probers revisiting the
// same dead node cannot re-arrive in lockstep.
func (m *Membership) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d + time.Duration(m.jitter(int64(d)))
}
