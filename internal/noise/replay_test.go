package noise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"topkagg/internal/budget"
	"topkagg/internal/circuit"
	"topkagg/internal/faultinject"
	"topkagg/internal/gen"
	"topkagg/internal/obs"
)

// bitwiseDiff describes the first difference between the bits two
// analyses publish — the iteration count, the convergence flag, every
// net's noise and every timing window — or returns "" when there is
// none.
func bitwiseDiff(got, want *Analysis) string {
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Sprintf("iterations/converged %d/%v, cold %d/%v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for n := range want.NetNoise {
		if math.Float64bits(got.NetNoise[n]) != math.Float64bits(want.NetNoise[n]) {
			return fmt.Sprintf("NetNoise[%d] = %v, cold %v", n, got.NetNoise[n], want.NetNoise[n])
		}
	}
	for n, w := range want.Timing.Windows {
		if !sameWindow(got.Timing.Windows[n], w) {
			return fmt.Sprintf("window[%d] = %+v, cold %+v", n, got.Timing.Windows[n], w)
		}
	}
	return ""
}

// assertBitwiseEqual fails the test on any bitwiseDiff.
func assertBitwiseEqual(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if d := bitwiseDiff(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// withoutTrajectory is prev as a snapshot restore rebuilds it: the
// exported fields only.
func withoutTrajectory(an *Analysis) *Analysis {
	return &Analysis{Base: an.Base, Timing: an.Timing, NetNoise: an.NetNoise,
		Iterations: an.Iterations, Converged: an.Converged}
}

// checkReplay runs one what-if from prev (computed under prevMask) to
// mask, compares it bitwise against a cold Run(mask), and returns the
// what-if for chaining.
func checkReplay(t *testing.T, m *Model, label string, prev *Analysis, prevMask, mask Mask, wantFull bool) *Analysis {
	t.Helper()
	got, st, err := m.RunIncremental(prev, prevMask, mask)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if st.Full != wantFull {
		t.Fatalf("%s: Full = %v, want %v", label, st.Full, wantFull)
	}
	if st.Affected < 0 || st.Affected > m.C.NumNets() {
		t.Fatalf("%s: Affected = %d of %d nets", label, st.Affected, m.C.NumNets())
	}
	want, err := m.Run(mask)
	if err != nil {
		t.Fatalf("%s: cold run: %v", label, err)
	}
	assertBitwiseEqual(t, label, got, want)
	return got
}

// replayCases drives the what-if shapes replay must get exactly right
// on one circuit: fixes of one to three couplings, un-fixes against a
// partial base mask, a chain of what-ifs each replaying the last, and
// a trajectory-less prev, which must run cold and say so.
func replayCases(t *testing.T, m *Model, name string, seed int64) {
	nc := m.C.NumCouplings()
	if nc == 0 {
		return
	}
	r := rand.New(rand.NewSource(seed))
	all := AllMask(m.C)
	full, err := m.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		mask := all.Clone()
		for i := 0; i < k; i++ {
			mask[r.Intn(nc)] = false
		}
		checkReplay(t, m, fmt.Sprintf("%s fix%d", name, k), full, all, mask, false)
	}

	partial := NewMask(m.C)
	for i := range partial {
		partial[i] = r.Intn(3) != 0
	}
	base, err := m.Run(partial)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		mask := partial.Clone()
		for i := 0; i < k; i++ {
			mask[r.Intn(nc)] = true
		}
		checkReplay(t, m, fmt.Sprintf("%s unfix%d", name, k), base, partial, mask, false)
	}

	prev, prevMask := full, all
	for step := 0; step < 3; step++ {
		mask := prevMask.Clone()
		id := r.Intn(nc)
		mask[id] = !mask[id]
		prev = checkReplay(t, m, fmt.Sprintf("%s chain%d", name, step), prev, prevMask, mask, false)
		prevMask = mask
	}

	mask := all.Clone()
	mask[r.Intn(nc)] = false
	checkReplay(t, m, name+" restored", withoutTrajectory(full), all, mask, true)
}

// TestReplayMatchesColdRun is the exactness certificate of trajectory
// replay: every what-if shape, on the paper mirrors, a 2k-net scaling
// circuit and 50 seeded random circuits, at one and eight sweep
// workers, must match a cold Run of the same mask bit for bit. Under
// -race it also checks the copy test for data races.
func TestReplayMatchesColdRun(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 12
	}
	type circ struct {
		c    *circuit.Circuit
		seed int64 // replayCases' draw seed
	}
	var circs []circ
	for i, name := range []string{"i1", "i2", "i3", "i4"} {
		c, err := gen.BuildPaper(name)
		if err != nil {
			t.Fatal(err)
		}
		circs = append(circs, circ{c, int64(i)})
	}
	c, err := gen.Scale(2000)
	if err != nil {
		t.Fatal(err)
	}
	circs = append(circs, circ{c, 4})
	// On this circuit a chained what-if queues a victim whose committed
	// noise differs from the base run's by less than Tol while every
	// window it reads is bitwise equal, so only the noise comparison
	// keeps the copy exact.
	c, err = gen.Build(gen.Spec{Name: "noisecheck", Gates: 115, Couplings: 275, Seed: 9065})
	if err != nil {
		t.Fatal(err)
	}
	circs = append(circs, circ{c, 65})
	for seed := 0; seed < seeds; seed++ {
		c, err := gen.Build(gen.Spec{
			Name:      fmt.Sprintf("replay%d", seed),
			Gates:     20 + (seed*7)%60,
			Couplings: 30 + (seed*13)%150,
			Seed:      int64(3000 + seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		circs = append(circs, circ{c, int64(100 + seed)})
	}
	for _, w := range []int{1, 8} {
		reg := obs.New()
		for _, cc := range circs {
			m := NewModel(cc.c).WithWorkers(w).WithObs(reg)
			replayCases(t, m, fmt.Sprintf("%s/w%d", cc.c.Name, w), cc.seed)
		}
		// Exact by construction is only worth testing if replay copies.
		if n := reg.Counter("noise.fixpoint.replays").Value(); n == 0 {
			t.Fatalf("workers %d: no evaluation was replayed", w)
		}
	}
}

// TestReplayDeadlineStops trips a deadline in the middle of a replay
// run: a probe at the run's first fresh evaluation sleeps past the
// deadline, and the run must return the typed deadline stop and no
// Analysis.
func TestReplayDeadlineStops(t *testing.T) {
	if !faultinject.Enabled() {
		t.Skip("fault-injection probes compiled out")
	}
	c, err := gen.BuildPaper("i3")
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(c)
	all := AllMask(c)
	prev, err := m.Run(all)
	if err != nil {
		t.Fatal(err)
	}
	mask := all.Clone()
	mask[0] = false

	plan := faultinject.NewPlan(1).Add(faultinject.SiteNoiseEval, faultinject.Rule{On: 1, Delay: 50 * time.Millisecond})
	faultinject.Arm(plan)
	defer faultinject.Disarm()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	an, _, err := m.RunIncrementalCtx(ctx, prev, all, mask)
	if budget.ReasonOf(err) != budget.DeadlineExceeded {
		t.Fatalf("reason %v (err %v), want a deadline stop", budget.ReasonOf(err), err)
	}
	if an != nil {
		t.Fatal("a stopped replay returned an Analysis")
	}
	if plan.Hits(faultinject.SiteNoiseEval) == 0 {
		t.Fatal("the replay stopped before its first evaluation")
	}
}
