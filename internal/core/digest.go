package core

import (
	"math"

	"topkagg/internal/waveform"
)

// digestGrid is the number of evenly spaced sample times each envelope
// digest takes over the victim's dominance interval. Small enough that
// a digest (plus its summaries) fits in two cache lines; large enough
// that most non-dominations show a separating sample.
const digestGrid = 24

// digestSlack is the comparison margin of the digest prefilter. The
// exact check accepts p over c at tolerance waveform.Eps, evaluating
// both waveforms at merged breakpoints with one linear interpolation
// each; the extra 1e-12 absorbs the rounding difference between the
// grid sampler's interpolation and the exact check's, so a digest
// rejection can never contradict an exact acceptance (DESIGN.md §10).
const digestSlack = waveform.Eps + 1e-12

// envDigest is the fixed-size conservative summary of one candidate
// envelope over the victim's dominance interval [lo, hi]: the global
// peak (memoizing the existing quick-reject), the grid samples, and
// their max and area. Dominance of p over c requires p(t) >= c(t)-Eps
// pointwise, so any sampled time — or the max/area aggregates over all
// of them — where c exceeds p by more than Eps+slack refutes dominance
// without touching the exact PWL check.
type envDigest struct {
	peak    float64
	smax    float64
	area    float64
	samples [digestGrid]float64
}

// fill computes the digest of env over [lo, hi]. sampled toggles the
// grid pass: the digest-free prune (Options.exactPrune) still memoizes
// peaks (they feed the quick reject) but skips sampling entirely.
func (d *envDigest) fill(env waveform.PWL, lo, hi float64, sampled bool) {
	_, d.peak = env.Peak()
	if !sampled {
		return
	}
	env.SampleInto(lo, hi, d.samples[:])
	mx, area := math.Inf(-1), 0.0
	for _, s := range d.samples {
		if s > mx {
			mx = s
		}
		area += s
	}
	d.smax, d.area = mx, area
}

// refutes reports that candidate digest c provably exceeds kept digest
// p somewhere on the dominance interval, i.e. the exact encapsulation
// check would return false. Conservative: false means "maybe
// dominated", and the caller must fall back to the exact check.
func (p *envDigest) refutes(c *envDigest) bool {
	if c.smax > p.smax+digestSlack {
		// The sample attaining c's max already separates the curves.
		return true
	}
	if c.area > p.area+digestGrid*digestSlack {
		// If p(t_g) >= c(t_g)-slack held at every sample, the areas
		// could differ by at most grid*slack.
		return true
	}
	for g := range c.samples {
		if c.samples[g] > p.samples[g]+digestSlack {
			return true
		}
	}
	return false
}

// pruneCounts reports what one prune pass discarded and how often the
// digest prefilter settled a dominance pair without the exact check.
type pruneCounts struct {
	dom, beam                   int
	digestHits, digestFallbacks int
}

// pruner reduces one victim's candidate list to its irredundant list.
// It owns a digest-pointer scratch slab that callers reuse across
// victims and cardinalities (one pruner per level worker).
type pruner struct {
	lo, hi float64
	width  int
	noDom  bool
	exact  bool // Options.exactPrune: skip the digest prefilter
	digs   []*envDigest
}

// digestOf returns the candidate's memoized digest, computing and
// publishing it on first use. Interned sets recur across passes and
// queries, so on warm runs this is a single atomic load.
func (pr *pruner) digestOf(c *aggSet) *envDigest {
	if d := c.dig.Load(); d != nil {
		return d
	}
	d := &envDigest{}
	d.fill(c.env, pr.lo, pr.hi, !pr.exact)
	c.dig.Store(d)
	return d
}

// prune removes dominated sets — whose envelope is encapsulated by a
// kept set's envelope over [lo, hi] and whose inherited shift does not
// exceed the kept set's — and beam-caps the survivors at width.
// Candidates must already be score-sorted descending; because
// domination implies a score at least as high, checking each candidate
// only against already-kept sets is sufficient. Every candidate is
// classified even after the beam fills, so the beam counter reports
// drops against the post-dominance list rather than lumping
// would-be-dominated stragglers in with it. The kept list is identical
// with the prefilter on or off: a digest can only refute dominance the
// exact check would also refute.
func (pr *pruner) prune(cands []*aggSet) ([]*aggSet, pruneCounts) {
	var pc pruneCounts
	kept := make([]*aggSet, 0, min(len(cands), pr.width))
	if pr.noDom {
		if len(cands) > pr.width {
			pc.beam = len(cands) - pr.width
			cands = cands[:pr.width]
		}
		return append(kept, cands...), pc
	}
	if cap(pr.digs) < len(cands) {
		pr.digs = make([]*envDigest, len(cands))
	}
	digs := pr.digs[:len(cands)]
	for n, c := range cands {
		digs[n] = pr.digestOf(c)
	}
	keptIdx := make([]int, 0, min(len(cands), pr.width))
	for n, c := range cands {
		dominated := false
		cd := digs[n]
		for _, kn := range keptIdx {
			p := cands[kn]
			if p.shift < c.shift-waveform.Eps {
				continue // smaller inherited shift cannot dominate
			}
			pd := digs[kn]
			if pd.peak < cd.peak-waveform.Eps {
				continue // quick reject: cannot encapsulate a higher peak
			}
			if !pr.exact {
				if pd.refutes(cd) {
					pc.digestHits++
					continue
				}
				pc.digestFallbacks++
			}
			if waveform.Encapsulates(p.env, c.env, pr.lo, pr.hi, waveform.Eps) {
				dominated = true
				break
			}
		}
		switch {
		case dominated:
			pc.dom++
		case len(kept) >= pr.width:
			pc.beam++
		default:
			kept = append(kept, c)
			keptIdx = append(keptIdx, n)
		}
	}
	return kept, pc
}
