// Package faultinject is the deterministic fault-injection harness
// behind the chaos tests: named probe points (Fire calls) are compiled
// into the engine worker loops, and a test arms a Plan mapping sites
// to injected faults — a panic, a delay, or an arbitrary callback
// (used to cancel a context mid-flight). Disarmed — the production
// state — a probe costs one atomic pointer load; building with the
// faultinject_off tag removes even that.
//
// Determinism: rules trigger on the site's hit counter (the Nth Fire
// at a site, or every Nth), not on wall time, so a given plan injects
// at the same logical point of the computation on every run.
// Probabilistic rules draw from the plan's seeded generator under a
// lock, so the accept/reject sequence is reproducible too.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Probe site names used across the repo. Tests arm plans against
// these; the engine code fires them.
const (
	// SiteNoiseEval fires once per victim evaluation in a fixpoint
	// sweep worker (internal/noise).
	SiteNoiseEval = "noise.fixpoint.eval"
	// SiteCoreVictim fires once per victim processed by a top-k
	// enumeration level worker (internal/core).
	SiteCoreVictim = "core.topk.victim"
	// SiteServeQuery fires once per query executed by an Analyzer
	// (internal/serve), before dispatch.
	SiteServeQuery = "serve.query"
	// SiteServePrep fires once per shared-state preparation build
	// (internal/serve).
	SiteServePrep = "serve.prep"
	// SiteBruteforceEval fires once per candidate set evaluated by a
	// brute-force search worker (internal/bruteforce).
	SiteBruteforceEval = "bruteforce.eval"
	// SiteSnapshotWrite fires once per section framed by a snapshot
	// encoder (internal/snapshot) — rules here model torn or failed
	// writes: an Err rule aborts the encode mid-file (the atomic-rename
	// protocol must then leave the previous snapshot intact), a Delay
	// rule widens the window for kill -9 crash tests.
	SiteSnapshotWrite = "snapshot.write"
	// SiteSnapshotRestore fires once per section read by a snapshot
	// decoder (internal/snapshot) — rules here model read-side
	// corruption and slow restores (Delay exposes the /readyz
	// not-ready window during boot).
	SiteSnapshotRestore = "snapshot.restore"
	// SiteSnapshotSyncDir fires once per directory fsync that publishes
	// a snapshot rename or removal (internal/snapshot) — an Err rule
	// stands in for the error from the fsync itself.
	SiteSnapshotSyncDir = "snapshot.syncdir"
)

// Injected is the panic value (and error) of an injected panic, so
// recovery layers and tests can tell deliberate faults from real bugs.
type Injected struct {
	// Site is the probe that fired.
	Site string
	// Hit is the 1-based hit count at which the rule triggered.
	Hit int64
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", e.Site, e.Hit)
}

// Rule describes one fault at one site. Trigger fields compose as
// AND: a rule with On=3 and Prob=0.5 fires at the third hit with
// probability one half. A rule with no trigger fields set fires on
// every hit.
type Rule struct {
	// On triggers at exactly the On-th hit of the site (1-based).
	On int64
	// Every triggers on every Every-th hit.
	Every int64
	// Prob gates the trigger with a draw from the plan's seeded
	// generator (0 = always).
	Prob float64

	// Panic injects a panic(*Injected) at the probe.
	Panic bool
	// Err injects an error return at probes that use FireErr (the
	// snapshot write/read sites). Fire ignores it — error injection is
	// only meaningful where the caller has an error path.
	Err error
	// Delay sleeps at the probe — for widening race windows and
	// forcing deadline expiry at a known point.
	Delay time.Duration
	// Call invokes an arbitrary callback at the probe (e.g. a context
	// cancel function). It runs before Panic would fire.
	Call func(site string, hit int64)
}

// Plan is an armed set of rules. Build with NewPlan + Add, then Arm.
type Plan struct {
	seed  int64
	rules map[string][]Rule
	hits  map[string]*atomic.Int64

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// NewPlan creates an empty plan whose probabilistic draws are seeded
// deterministically.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:  seed,
		rules: map[string][]Rule{},
		hits:  map[string]*atomic.Int64{},
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Add attaches a rule to a site and returns the plan for chaining.
// Add must not be called after Arm.
func (p *Plan) Add(site string, r Rule) *Plan {
	p.rules[site] = append(p.rules[site], r)
	if p.hits[site] == nil {
		p.hits[site] = &atomic.Int64{}
	}
	return p
}

// Hits returns how many times the site has fired under this plan.
func (p *Plan) Hits(site string) int64 {
	if h := p.hits[site]; h != nil {
		return h.Load()
	}
	return 0
}

// active is the armed plan; nil means every probe is a near-free
// no-op. A single global (rather than per-engine plumbing) keeps the
// production code paths free of harness state.
var active atomic.Pointer[Plan]

// Arm makes the plan live. Tests must pair it with a deferred Disarm
// and must not run in parallel with other armed tests.
func Arm(p *Plan) { active.Store(p) }

// Disarm returns every probe to the no-op state.
func Disarm() { active.Store(nil) }

// Armed reports whether a plan is live.
func Armed() bool { return enabled && active.Load() != nil }

// Enabled reports whether probes are compiled in at all (false under
// the faultinject_off build tag). Chaos tests skip when probes are
// out.
func Enabled() bool { return enabled }

// Fire is the probe the engine layers call at their injection sites.
// With no plan armed (or with the faultinject_off build tag) it does
// nothing; with a matching rule armed it sleeps, calls back, or
// panics with *Injected.
func Fire(site string) {
	if !enabled {
		return
	}
	p := active.Load()
	if p == nil {
		return
	}
	p.fire(site)
}

// FireErr is Fire for probe sites whose caller has an error path (the
// snapshot write/read sites): a triggered rule with Err set returns
// that error instead of panicking, modelling I/O failures (ENOSPC, a
// torn write, read-side corruption) that production code must handle
// gracefully. Rules without Err behave exactly as under Fire.
func FireErr(site string) error {
	if !enabled {
		return nil
	}
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fireErr(site)
}

func (p *Plan) fire(site string) { _ = p.fireErr(site) }

func (p *Plan) fireErr(site string) error {
	rules := p.rules[site]
	if len(rules) == 0 {
		return nil
	}
	hit := p.hits[site].Add(1)
	for i := range rules {
		r := &rules[i]
		if r.On != 0 && hit != r.On {
			continue
		}
		if r.Every != 0 && hit%r.Every != 0 {
			continue
		}
		if r.Prob > 0 {
			p.mu.Lock()
			draw := p.rng.Float64()
			p.mu.Unlock()
			if draw >= r.Prob {
				continue
			}
		}
		if r.Delay > 0 {
			time.Sleep(r.Delay)
		}
		if r.Call != nil {
			r.Call(site, hit)
		}
		if r.Panic {
			panic(&Injected{Site: site, Hit: hit})
		}
		if r.Err != nil {
			return fmt.Errorf("%w (injected at %s hit %d)", r.Err, site, hit)
		}
	}
	return nil
}
