package main

import (
	"crypto/sha256"
	"io"
	"os"
	"testing"

	"topkagg/internal/cell"
	"topkagg/internal/netlist"
)

func TestPercentileKeepsTenBeyond(t *testing.T) {
	desc := make([]float64, 1000) // 1000, 999, ..., 1: unsorted on purpose
	for i := range desc {
		desc[i] = float64(len(desc) - i)
	}
	last := func(n int) []float64 { return desc[len(desc)-n:] } // the values n..1
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{{1000, 0.99, 990}, {200, 0.95, 190}, {21, 0.50, 11}} {
		got, err := percentile(last(tc.n), tc.q)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", tc.q*100, tc.n, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		n int
		q float64
	}{{999, 0.99}, {199, 0.95}, {19, 0.50}, {0, 0.50}} {
		if _, err := percentile(last(tc.n), tc.q); err == nil {
			t.Errorf("p%g of %d samples: want an error, fewer than %d lie beyond", tc.q*100, tc.n, minBeyond)
		}
	}
}

func TestPartPercentilesAndIQM(t *testing.T) {
	// Four parts of 220 samples 1..220; the third is slowed tenfold.
	var s []float64
	for part := 0; part < 4; part++ {
		for v := 1; v <= 220; v++ {
			if part == 2 {
				s = append(s, 10*float64(v))
			} else {
				s = append(s, float64(v))
			}
		}
	}
	qs, err := partPercentiles(s, 0.95, 4)
	if err != nil || len(qs) != 4 || qs[0] != 209 || qs[2] != 2090 {
		t.Fatalf("part p95s = %v, %v; want [209 209 2090 209]", qs, err)
	}
	if got := iqm(qs); got != 209 {
		t.Errorf("iqm(%v) = %v; want 209, the slow part dropped", qs, got)
	}
	if got := iqm([]float64{3, 1, 2}); got != 2 {
		t.Errorf("iqm of three = %v; want their mean, 2", got)
	}
	if got := iqm([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -100}); got != 4.5 {
		t.Errorf("iqm of ten = %v; want 4.5, the mean of the middle six", got)
	}
	// One part must still keep ten beyond its p95.
	if _, err := partPercentiles(s[:200], 0.95, 1); err != nil {
		t.Errorf("p95 of 200: %v", err)
	}
	if _, err := partPercentiles(s[:199], 0.95, 1); err == nil {
		t.Error("p95 of 199: want an error, fewer than 10 lie beyond")
	}
}

func TestChunksAreWholeSlices(t *testing.T) {
	for _, tc := range []struct{ n, slices, chunks int }{
		{999, 1, 9}, {1000, 1, 9}, {3040, 3, 9}, {4999, 4, 12}, {20000, 5, 10},
	} {
		if s, c := timedSlices(tc.n), timedChunks(tc.n); s != tc.slices || c != tc.chunks {
			t.Errorf("%d requests: %d slices, %d chunks; want %d and %d", tc.n, s, c, tc.slices, tc.chunks)
		}
	}
}

func TestCPUTicks(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (top kd) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 157 43 0 0 20 0 9 0 123456 1000000 2000\n"
	if got, err := cpuTicks(stat); err != nil || got != 200 {
		t.Fatalf("cpuTicks = %d, %v; want 200 (157 utime + 43 stime)", got, err)
	}
	for _, bad := range []string{
		"",
		"4242 topkd S 1",
		"4242 (topkd) S 1 2 3",
		"4242 (topkd) S 1 4242 4242 0 -1 4194560 1234 0 0 0 x 43 0",
	} {
		if _, err := cpuTicks(bad); err == nil {
			t.Errorf("cpuTicks(%q): want an error", bad)
		}
	}
	own, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc on this system")
	}
	if _, err := cpuTicks(string(own)); err != nil {
		t.Errorf("cpuTicks(/proc/self/stat): %v", err)
	}
}

// planDigest hashes everything a plan would send.
func planDigest(t *testing.T, workload string, seed int64) [sha256.Size]byte {
	t.Helper()
	p, err := buildPlan(workload, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, list := range [][]request{{p.upload(0)}, p.warmup, p.timed, p.edits} {
		for i := range list {
			io.WriteString(h, list[i].method()+" "+list[i].path()+"\n")
			h.Write(list[i].body)
		}
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestPlansFollowTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := planDigest(t, w, 1), planDigest(t, w, 1), planDigest(t, w, 2)
		if a != b {
			t.Errorf("%s: seed 1 twice gave different bytes", w)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same bytes", w)
		}
	}
}

func TestEditedDesignsParse(t *testing.T) {
	for _, w := range []string{"topk_signoff", "eco_reload"} {
		p, err := buildPlan(w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.designs) < 2 || p.designs[1].couplings >= p.designs[0].couplings {
			t.Fatalf("%s: want edited designs with fewer couplings than the base", w)
		}
		for i, d := range p.designs {
			c, err := netlist.ParseString(string(d.text), cell.Default())
			if err != nil {
				t.Fatalf("%s design %d: %v", w, i, err)
			}
			if c.NumCouplings() != d.couplings {
				t.Errorf("%s design %d: %d couplings, plan says %d", w, i, c.NumCouplings(), d.couplings)
			}
		}
	}
}
