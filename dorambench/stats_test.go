package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestPercentilesCountTheTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p := percentiles(xs)
	if p.N != 1000 || !near(p.P50, 500.5) || !near(p.P90, 900.1) {
		t.Fatalf("percentiles = %+v", p)
	}
	if p.Beyond.P90 != 100 || p.Beyond.P99 != 10 || p.Beyond.P999 != 1 {
		t.Errorf("samples beyond = %+v, want 100/10/1", p.Beyond)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestGoodputCountsOnlyTimelySuccesses(t *testing.T) {
	ms := time.Millisecond
	lat := []time.Duration{10 * ms, 400 * ms, 401 * ms, 5 * ms}
	ok := []bool{true, true, true, false} // the fast failure still misses
	if got := goodput(lat, ok, 400*ms, 2*time.Second); !near(got, 1) {
		t.Errorf("goodput = %v, want 2 good replies / 2 s = 1", got)
	}
}

func TestQuietestKeepsTheQuietOps(t *testing.T) {
	// Ops 1 and 3 ran while other tenants held the host.
	nz := []float64{0, 0.3, 0.05, 0.2, 0.1}
	if got := quietest(nz); !slices.Equal(got, []int{0, 2, 4}) {
		t.Errorf("quietest = %v, want the ops at or under %v: [0 2 4]", got, quietNoise)
	}
	times := []float64{10, 90, 11, 70, 12}
	if got := median(pick(times, quietest(nz))); !near(got, 11) {
		t.Errorf("quiet median = %v, want 11", got)
	}
}

func TestQuietestFallsBackToTheQuieterHalf(t *testing.T) {
	// A busy host: only op 4 is quiet, so the quieter half is kept, the
	// tie between ops 1 and 3 going to the earlier one.
	nz := []float64{0.5, 0.2, 0.4, 0.2, 0, 0.3}
	if got := quietest(nz); !slices.Equal(got, []int{1, 3, 4}) {
		t.Errorf("quietest = %v, want the quieter half [1 3 4]", got)
	}
	if got := quietest(nil); len(got) != 0 {
		t.Errorf("quietest(nil) = %v", got)
	}
}

func TestNoiseCountsStealAndOtherProcesses(t *testing.T) {
	t0 := cpuTimes{total: 1000, busy: 300, steal: 10, self: 200}
	// Of 100 ticks, 5 stolen and 40 busy, 30 of them this process's.
	t1 := cpuTimes{total: 1100, busy: 340, steal: 15, self: 230}
	if got := noise(t0, t1); !near(got, 0.05+0.10-0.01) {
		t.Errorf("noise = %v, want 0.05 steal + 0.10 others - 0.01 forgiven", got)
	}
	t1.steal, t1.busy = 10, 331 // one tick of others: rounding
	if got := noise(t0, t1); got != 0 {
		t.Errorf("noise of one tick = %v, want 0", got)
	}
	if got := noise(t1, t1); got != 0 {
		t.Errorf("noise over no ticks = %v, want 0", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{50, 70},
		{10, 30},
		{20, 40},   // overlaps the previous one
		{90, 120},  // clipped to the parent
		{200, 300}, // outside the parent
	}
	// Covered: [10,40) + [50,70) + [90,100) = 30 + 20 + 10.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %v, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
}

func TestFinishRefusesNonNumbers(t *testing.T) {
	b := newTestBench(1)
	b.attempted, b.failed = 3, 3
	b.e2e["ops_per_s"] = math.NaN()
	res := b.finish()
	if res.Correct || len(b.refusals) != 1 || res.Metrics["ops_per_s"].Value != 0 {
		t.Errorf("finish = %+v, refusals %v", res, b.refusals)
	}
}

func TestNoiseFromUsesAFixedSpan(t *testing.T) {
	// A sample every 10 ms on 2 CPUs; from 200 ms on, the hypervisor
	// steals half of the host.
	s := &hostSampler{start: time.Now()}
	var c cpuTimes
	for k := 0; k <= 40; k++ {
		s.at = append(s.at, time.Duration(k)*10*time.Millisecond)
		s.samples = append(s.samples, c)
		c.total += 2
		if k >= 20 {
			c.steal++
		}
	}
	if got := s.noiseFrom(s.start); got != 0 {
		t.Errorf("noise over the quiet first 100 ms = %v, want 0", got)
	}
	// 150–250 ms: 5 of 20 ticks stolen, one forgiven.
	if got := s.noiseFrom(s.start.Add(150 * time.Millisecond)); !near(got, 0.25-0.05) {
		t.Errorf("noise from 150 ms = %v, want 0.2", got)
	}
	// 300 ms on: the span is cut at the last sample, 10 of 20 ticks stolen.
	if got := s.noiseFrom(s.start.Add(300 * time.Millisecond)); !near(got, 0.5-0.05) {
		t.Errorf("noise from 300 ms = %v, want 0.45", got)
	}
}
