// Command dorambench is the repository's end-to-end benchmark. It runs one
// workload in this process, checks every output it measures, and prints a
// report followed by a one-line JSON result:
//
//	dorambench -workload sim-corun -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced, CPU-profiled run. See
// README.md in this directory for the workloads and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the sim digest table was recorded at.
const defaultSeed = 1

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"sim-corun":   runSimCorun,
	"sim-idle":    runSimIdle,
	"serve-fleet": runFleet,
	"oram-kv":     runORAMKV,
}

// bench is the state of one run: its options, the op tally, and what the
// workload measured.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	outDir   string

	attempted int
	failed    int
	problems  []string // the first few failed ops, for the report
	refusals  []string // validity checks that void the whole run

	e2e    map[string]float64
	layer  map[string]float64
	report map[string]any
	spans  *spanLog
}

// check counts one checked operation, and a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// refuse voids the run: its figures are not comparable with other runs.
func (b *bench) refuse(format string, args ...any) {
	b.refusals = append(b.refusals, fmt.Sprintf(format, args...))
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median round.
const setupRounds = 3

// timeSetups runs setup setupRounds times and records the median time.
// Each round but the last is followed by teardown.
func (b *bench) timeSetups(setup func() error, teardown func()) error {
	var ts []float64
	cpu0, cpuOK := readCPU()
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	b.e2e["setup_s"] = median(ts)
	b.report["setup_rounds_s"] = ts
	b.report["setup_steal_share"], b.report["setup_others_busy_share"] = hostLoad(cpu0, cpuOK)
	return nil
}

// phase is what one measured window tells the harness: the op median that
// trace_overhead_frac compares.
type phase struct{ p50ms float64 }

// measure runs the measured window. Untraced, it is one window of the full
// length. Traced, an untraced half is followed by a half that records
// spans and a CPU profile; the overhead of tracing is the difference of
// the two halves' op medians.
//
// The host's load over the window goes into the report: on a shared host
// the hypervisor's steal and other tenants' work take anywhere from under
// 1% to 30% of the CPUs from minute to minute, and the timings move with
// them.
func (b *bench) measure(run func(d time.Duration, spans *spanLog) (phase, error)) error {
	cpu0, cpuOK := readCPU()
	defer func() { b.report["steal_share"], b.report["others_busy_share"] = hostLoad(cpu0, cpuOK) }()
	if !b.traced {
		_, err := run(b.window, nil)
		return err
	}
	plain, err := run(b.window/2, nil)
	if err != nil {
		return err
	}
	b.spans = newSpanLog(time.Now())
	prof, err := startProfile()
	if err != nil {
		return err
	}
	traced, err := run(b.window/2, b.spans)
	raw := prof.stop()
	if err != nil {
		return err
	}
	shares, err := groupProfile(raw)
	if err != nil {
		return err
	}
	b.layer["runtime.sched_share"] = shares.share(groupSched)
	b.layer["runtime.gc_share"] = shares.share(groupGC)
	other := 1 - shares.share(groupSched) - shares.share(groupGC)
	for _, l := range shareLayers {
		b.layer[l+".cpu_share"] = shares.share(l)
		other -= shares.share(l)
	}
	b.layer["other.cpu_share"] = other
	b.layer["prof.samples"] = float64(shares.Samples)
	if plain.p50ms > 0 {
		b.layer["trace_overhead_frac"] = traced.p50ms/plain.p50ms - 1
	}
	b.report["profile"] = shares
	b.report["untraced_half_p50_ms"] = plain.p50ms
	b.report["traced_half_p50_ms"] = traced.p50ms
	if b.outDir != "" {
		if err := os.WriteFile(b.artefact("cpu.pprof"), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) artefact(suffix string) string {
	return filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-trace%d.%s", b.workload, b.seed, btoi(b.traced), suffix))
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func machine() map[string]any {
	model := ""
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go_version": runtime.Version(),
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish assembles the result from the run's tally and figures.
func (b *bench) finish() result {
	defs, vals := endToEnd, b.e2e
	if b.traced {
		defs, vals = perLayer, b.layer
	}
	// A window whose every op failed leaves 0/0 behind; such a run is
	// refused, and its figures print as 0.
	for _, m := range []map[string]float64{b.e2e, b.layer} {
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				b.refuse("%s is not a number", k)
				m[k] = 0
			}
		}
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricJSON{Value: vals[d.Name], Unit: d.Unit}
	}
	res.Correct = b.failed == 0 && len(b.refusals) == 0 && b.attempted > 0
	return res
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs traced and prints per-layer metrics; 0 prints end-to-end metrics")
	outDir := flag.String("out", "", "directory for the report, spans and profile (none when empty)")
	recordDigests := flag.Bool("record-digests", false, "print the sim digest table for the default seed as Go source and exit")
	flag.Parse()

	if *recordDigests {
		if err := printDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "dorambench:", err)
			os.Exit(1)
		}
		return
	}

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dorambench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		outDir:   *outDir,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		report:   map[string]any{},
	}
	if b.outDir != "" {
		if err := os.MkdirAll(b.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dorambench:", err)
			os.Exit(1)
		}
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "dorambench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	b.e2e["max_rss_mb"] = maxRSSMB()
	res := b.finish()

	b.report["workload"] = b.workload
	b.report["seed"] = b.seed
	b.report["window_s"] = b.window.Seconds()
	b.report["traced"] = b.traced
	b.report["machine"] = machine()
	b.report["attempted"] = b.attempted
	b.report["failed"] = b.failed
	b.report["failures"] = b.problems
	b.report["refusals"] = b.refusals
	b.report["end_to_end"] = b.e2e
	if b.traced {
		b.report["per_layer"] = b.layer
	}
	b.report["model_validation"] = "unvalidated: the simulator is compared only with the paper's figures, never with hardware"
	rep, err := json.MarshalIndent(b.report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dorambench: report:", err)
		os.Exit(1)
	}
	fmt.Println(string(rep))
	if b.outDir != "" {
		err := os.WriteFile(b.artefact("report.json"), rep, 0o644)
		if err == nil && b.spans != nil {
			err = b.spans.write(b.artefact("spans.jsonl"))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dorambench: artefacts:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dorambench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
