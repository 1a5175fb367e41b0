package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"time"

	"doram"
)

// Trace lengths put one simulator call at roughly 50–120 ms on a 2-CPU
// host, so a 20 s window holds a couple of hundred calls.
const (
	corunTraceLen = 400
	idleTraceLen  = 200
	idlePace      = 4000
)

// simCase is one simulator configuration the closed-loop caller visits.
type simCase struct {
	name string
	cfg  doram.SimConfig
}

// corunCases is the Figure 9 shape, 1 S-App + 7 NS-Apps, under Path ORAM,
// D-ORAM and D-ORAM+1 over three benchmarks of falling MPKI, in a seeded
// order. The simulations keep the paper's default trace seed: the
// simulated cycles of a trace vary by ±5% between trace seeds, which would
// swamp the host-time differences the workload exists to show.
func corunCases(seed uint64) []simCase {
	var cs []simCase
	for _, s := range []struct {
		name   string
		scheme doram.Scheme
		k      int
	}{{"path-oram", doram.SchemePathORAM, 0}, {"d-oram", doram.SchemeDORAM, 0}, {"d-oram-k1", doram.SchemeDORAM, 1}} {
		for _, bm := range []string{"mummer", "libq", "comm4"} {
			cfg := doram.DefaultSimConfig(s.scheme, bm)
			cfg.SplitK = s.k
			cfg.TraceLen = corunTraceLen
			cs = append(cs, simCase{s.name + "/" + bm, cfg})
		}
	}
	return shuffleCases(cs, seed)
}

// idleCases run a lone S-App at a slow pace, so next-event fast-forward
// skips almost every cycle. Like corunCases they keep the default trace
// seed and take only their order from the workload seed.
func idleCases(seed uint64) []simCase {
	var cs []simCase
	for _, scheme := range []doram.Scheme{doram.SchemeDORAM, doram.SchemePathORAM} {
		for _, bm := range []string{"libq", "mummer"} {
			cfg := doram.DefaultSimConfig(scheme, bm)
			cfg.NumNS = 0
			cfg.Pace = idlePace
			cfg.TraceLen = idleTraceLen
			cs = append(cs, simCase{string(scheme) + "/" + bm, cfg})
		}
	}
	return shuffleCases(cs, seed)
}

func shuffleCases(cs []simCase, seed uint64) []simCase {
	rng := rand.New(rand.NewPCG(seed, 0x5c3a))
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// resultDigest fingerprints a result's canonical JSON, Raw included.
func resultDigest(res *doram.SimResult) string {
	data, err := json.Marshal(res)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

func runSimCorun(b *bench) error { return runSim(b, corunCases(b.seed), corunDigests) }
func runSimIdle(b *bench) error  { return runSim(b, idleCases(b.seed), idleDigests) }

// simRunner is the single closed-loop caller of doram.Simulate.
type simRunner struct {
	b     *bench
	cases []simCase
	want  map[string]string // digest table
	ref   []string          // first digest seen per case this run
	next  int               // rotation position
	ops   int               // calls made, for span request ids
}

// call runs one case and checks its result, counting one op. It returns
// the call's start, its wall time and the result, or a nil result when
// the op failed.
func (s *simRunner) call(i int, spans *spanLog) (time.Time, time.Duration, *doram.SimResult) {
	c := s.cases[i]
	s.ops++
	t0 := time.Now()
	res, err := doram.Simulate(c.cfg)
	t1 := time.Now()
	spans.add("doram.Simulate "+c.name, strconv.Itoa(s.ops), 0, t0, t1)
	if err == nil {
		err = s.verify(i, res)
	}
	s.b.check(err == nil, "%s: %v", c.name, err)
	if err != nil {
		return t0, 0, nil
	}
	return t0, t1.Sub(t0), res
}

// verify checks a result against the case's first result in this run
// and against the digest table. The table was recorded at the default
// seed; the seed only orders the cases, so it holds at every seed.
func (s *simRunner) verify(i int, res *doram.SimResult) error {
	d := resultDigest(res)
	if s.ref[i] == "" {
		s.ref[i] = d
	}
	if d != s.ref[i] {
		return fmt.Errorf("digest %s differs from this run's earlier %s", d, s.ref[i])
	}
	if want := s.want[s.cases[i].name]; d != want {
		return fmt.Errorf("digest %s, recorded %q", d, want)
	}
	return nil
}

func runSim(b *bench, cases []simCase, want map[string]string) error {
	s := &simRunner{b: b, cases: cases, want: want, ref: make([]string, len(cases))}
	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.name
	}
	b.report["case_order"] = names

	// Set-up is a warm-up round of every case.
	err := b.timeSetups(func() error {
		for i := range cases {
			s.call(i, nil)
		}
		return nil
	}, func() {})
	if err != nil {
		return err
	}

	err = b.measure(func(d time.Duration, spans *spanLog) (phase, error) {
		perCase := make([][]float64, len(cases))
		caseStarts := make([][]time.Time, len(cases))
		var all []float64
		var wallNs, kcycles float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		host := startHostSampler()
		start := time.Now()
		for time.Since(start) < d {
			i := s.next
			s.next = (s.next + 1) % len(cases)
			t0, dur, res := s.call(i, spans)
			if res == nil {
				continue
			}
			perCase[i] = append(perCase[i], ms(dur))
			caseStarts[i] = append(caseStarts[i], t0)
			all = append(all, ms(dur))
			wallNs += float64(dur)
			kcycles += float64(res.Raw.Cycles) / 1000
		}
		host.close()
		runtime.ReadMemStats(&m1)

		// The timed figures come from each case's calls that started on a
		// quiet host.
		var medians, quiet []float64
		sumMedianS := 0.0
		caseReport := map[string]pctReport{}
		for i, xs := range perCase {
			if len(xs) == 0 {
				continue
			}
			nz := make([]float64, len(xs))
			for k, t0 := range caseStarts[i] {
				nz[k] = host.noiseFrom(t0)
			}
			xs = pick(xs, quietest(nz))
			quiet = append(quiet, xs...)
			medians = append(medians, median(xs))
			sumMedianS += median(xs) / 1000
			caseReport[cases[i].name] = percentiles(xs)
		}
		p50 := geomean(medians)
		if spans == nil {
			if len(medians) < len(cases) || len(all) < 100 {
				b.refuse("window held %d calls over %d of %d cases; p90 needs 100", len(all), len(medians), len(cases))
			}
			b.e2e["ops_per_s"] = float64(len(medians)) / sumMedianS
			b.e2e["op_p50_ms"] = p50
			b.e2e["op_p90_ms"] = quantile(quiet, 0.9)
			b.report["ops"] = percentiles(all)
			b.report["quiet_ops"] = percentiles(quiet)
			b.report["cases"] = caseReport
		} else if len(all) > 0 {
			b.layer["sim.host_ns_per_kcycle"] = wallNs / kcycles
			b.layer["sim.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(all))
			b.report["traced_ops"] = percentiles(all)
		}
		return phase{p50ms: p50}, nil
	})
	if err != nil {
		return err
	}
	metricsRound(b, s)
	return nil
}

// metricsRound reruns every case with the metrics registry on. Its results
// must equal the plain round's, and its counters give the exact simulated
// per-layer figures.
func metricsRound(b *bench, s *simRunner) {
	var reads, writes, activates, busBusy, memCycles, readQSum, epochs float64
	var accesses, dummies, cycles float64
	for i, c := range s.cases {
		cfg := c.cfg
		cfg.Metrics = true
		res, err := doram.Simulate(cfg)
		var dump *doram.MetricsDump
		if err == nil {
			dump = res.Metrics
			res.Metrics, res.Timeline = nil, nil
			err = s.verify(i, res)
		}
		if err == nil && dump == nil {
			err = fmt.Errorf("no metrics dump")
		}
		b.check(err == nil, "%s metrics round: %v", c.name, err)
		if err != nil {
			continue
		}
		for name, v := range dump.Counters {
			switch {
			case strings.HasSuffix(name, ".dram.reads"):
				reads += float64(v)
			case strings.HasSuffix(name, ".dram.writes"):
				writes += float64(v)
			case strings.HasSuffix(name, ".dram.activates"):
				activates += float64(v)
			case strings.HasSuffix(name, ".bus_busy_cycles"):
				busBusy += float64(v)
			}
		}
		if tl := dump.Timeline; tl != nil && len(tl.Epochs) > 0 {
			last := tl.Epochs[len(tl.Epochs)-1]
			for j, series := range tl.Series {
				if channelSeries(series, "mem_cycles") {
					memCycles += last.Values[j]
				}
			}
			for _, e := range tl.Epochs {
				for j, series := range tl.Series {
					if channelSeries(series, "read_q") {
						readQSum += e.Values[j]
					}
				}
				epochs++
			}
		}
		if res.Raw.ORAM != nil {
			accesses += float64(res.Raw.ORAM.Accesses)
			dummies += float64(res.Raw.ORAM.Dummy)
		}
		cycles += float64(res.Raw.Cycles)
	}
	n := float64(len(s.cases))
	b.layer["mc.row_hit_rate"] = ratio(reads+writes-activates, reads+writes)
	b.layer["mc.read_q_mean"] = ratio(readQSum, epochs)
	b.layer["dram.bus_util"] = ratio(busBusy, memCycles)
	b.layer["delegator.dummy_frac"] = ratio(dummies, accesses)
	b.layer["oram.accesses_per_op"] = accesses / n
	b.layer["sim.kcycles_per_op"] = cycles / 1000 / n
}

// channelSeries reports whether a timeline series is the channel-level
// rollup "chan<N>.<what>" rather than one of its controllers' series.
func channelSeries(series, what string) bool {
	ch, rest, ok := strings.Cut(series, ".")
	return ok && strings.HasPrefix(ch, "chan") && rest == what
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// printDigests writes the digest table for the default seed as Go source.
func printDigests() error {
	for _, t := range []struct {
		name  string
		cases []simCase
	}{{"corunDigests", corunCases(defaultSeed)}, {"idleDigests", idleCases(defaultSeed)}} {
		fmt.Printf("var %s = map[string]string{\n", t.name)
		for _, c := range t.cases {
			res, err := doram.Simulate(c.cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			fmt.Printf("\t%q: %q,\n", c.name, resultDigest(res))
		}
		fmt.Println("}")
	}
	return nil
}
