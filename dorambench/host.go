package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host is a shared VM: the hypervisor's steal and other tenants' work
// take anywhere from under 1% to 30% of its CPUs from minute to minute, and
// every timing moves with them. So a sampler reads the host's counters
// through each window, each op (or block of ops) is given the host noise
// over a fixed span from its start, and the timed figures are taken over
// the ops that started on a quiet host; see quietest.

// cpuTimes are the host's CPU counters from /proc/stat's aggregate "cpu"
// line and this process's own CPU time, all in clock ticks.
type cpuTimes struct{ total, busy, steal, self uint64 }

func readCPU() (cpuTimes, bool) {
	var t cpuTimes
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal; guest time is inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return t, false
		}
		t.total += v
		switch i {
		case 0, 1, 2, 5, 6:
			t.busy += v
		case 7:
			t.steal = v
		}
	}
	// utime and stime are fields 14 and 15 of /proc/self/stat, counted after
	// the parenthesised command name, which may hold spaces.
	self, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return t, false
	}
	rest := strings.Fields(string(self[strings.LastIndexByte(string(self), ')')+1:]))
	if len(rest) < 13 {
		return t, false
	}
	for _, f := range rest[11:13] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return t, false
		}
		t.self += v
	}
	return t, true
}

// load is how much of the host's CPU time between t0 and t1 the
// hypervisor stole and how much other processes kept busy.
func load(t0, t1 cpuTimes) (steal, others float64) {
	if t1.total <= t0.total {
		return 0, 0
	}
	total := float64(t1.total - t0.total)
	steal = float64(t1.steal-t0.steal) / total
	others = max(0, float64(t1.busy-t0.busy)-float64(t1.self-t0.self)) / total
	return steal, others
}

// noise is the share of the host's CPU time between t0 and t1 that was
// not available to this process: stolen, or used by other processes. The
// counters tick in 10 ms units, so one tick of it is forgiven as rounding.
func noise(t0, t1 cpuTimes) float64 {
	steal, others := load(t0, t1)
	if t1.total <= t0.total {
		return 0
	}
	return max(0, steal+others-1/float64(t1.total-t0.total))
}

// hostLoad is load from t0 until now.
func hostLoad(t0 cpuTimes, ok bool) (steal, others float64) {
	t, ok1 := readCPU()
	if !ok || !ok1 {
		return 0, 0
	}
	return load(t0, t)
}

// quietNoise is the most host noise an op may see and still count as
// measured on a quiet host: over the 100–110 ms a noise span covers on
// 2 CPUs, two ticks beyond the forgiven one.
const quietNoise = 0.10

// quietest returns the indices, in order, of the samples that saw at most
// quietNoise. When fewer than half of them did, it returns the quieter
// half instead (equal noise keeps the earlier sample), so a run on a busy
// host still reports its least disturbed ops rather than none.
func quietest(noise []float64) []int {
	idx := make([]int, len(noise))
	for i := range idx {
		idx[i] = i
	}
	var quiet []int
	for _, i := range idx {
		if noise[i] <= quietNoise {
			quiet = append(quiet, i)
		}
	}
	if keep := (len(noise) + 1) / 2; len(quiet) < keep {
		sort.SliceStable(idx, func(a, b int) bool { return noise[idx[a]] < noise[idx[b]] })
		quiet = idx[:keep]
		sort.Ints(quiet)
	}
	return quiet
}

// pick returns xs at the given indices.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// hostSampler reads the host's CPU counters every hostSampleEvery while a
// window runs.
type hostSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	at      []time.Duration // since start
	samples []cpuTimes
}

// noiseSpan is how long after an op's start its noise is measured. The
// span is the same for every op: were it the op's own length, a short op
// would more often see no tick at all, and the quiet ops would be the
// short ones rather than the undisturbed ones.
const (
	hostSampleEvery = 10 * time.Millisecond
	noiseSpan       = 100 * time.Millisecond
)

func startHostSampler() *hostSampler {
	s := &hostSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(hostSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *hostSampler) sample() {
	t, ok := readCPU()
	if !ok {
		return
	}
	s.mu.Lock()
	s.at = append(s.at, time.Since(s.start))
	s.samples = append(s.samples, t)
	s.mu.Unlock()
}

// close stops the sampler and waits for it.
func (s *hostSampler) close() {
	close(s.stop)
	<-s.done
}

// noiseFrom is the host noise over noiseSpan from t, between the last
// sample at or before t and the first at or after t+noiseSpan (or the
// last sample, for an op that starts near the end of the window).
func (s *hostSampler) noiseFrom(t time.Time) float64 {
	from := t.Sub(s.start)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := max(0, sort.Search(len(s.at), func(k int) bool { return s.at[k] > from })-1)
	j := min(len(s.at)-1, sort.Search(len(s.at), func(k int) bool { return s.at[k] >= from+noiseSpan }))
	if j <= i {
		return 0
	}
	return noise(s.samples[i], s.samples[j])
}
