package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"doram"
)

func newTestBench(seed uint64) *bench {
	return &bench{seed: seed, e2e: map[string]float64{}, layer: map[string]float64{}, report: map[string]any{}}
}

func caseNames(cs []simCase) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.name)
	}
	return out
}

func TestSeedFixesTheInputs(t *testing.T) {
	for name, cases := range map[string]func(uint64) []simCase{"corun": corunCases, "idle": idleCases} {
		a, b, c := caseNames(cases(7)), caseNames(cases(7)), caseNames(cases(8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two case orders: %v / %v", name, a, b)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same case order %v", name, a)
		}
	}

	planKey := func(p []fleetReq) string {
		var sb strings.Builder
		for _, r := range p {
			fmt.Fprintf(&sb, "%d/%v/%s/%d;", r.due, r.hit, r.spec.Benchmark, r.spec.Seed)
		}
		return sb.String()
	}
	w := 5 * time.Second
	if planKey(fleetPlan(7, 0, w)) != planKey(fleetPlan(7, 0, w)) {
		t.Error("seed 7 gave two request plans")
	}
	if planKey(fleetPlan(7, 0, w)) == planKey(fleetPlan(8, 0, w)) {
		t.Error("seeds 7 and 8 gave the same request plan")
	}

	opsKey := func(seed uint64) string {
		s := newOpStream(seed)
		var sb strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprint(&sb, s.next(1000))
		}
		return sb.String()
	}
	if opsKey(7) != opsKey(7) {
		t.Error("seed 7 gave two ORAM op streams")
	}
	if opsKey(7) == opsKey(8) {
		t.Error("seeds 7 and 8 gave the same ORAM op stream")
	}
}

func TestFleetPlanShape(t *testing.T) {
	w := 20 * time.Second
	plan := fleetPlan(3, 0, w)
	if want := int(fleetRate * w.Seconds()); len(plan) != want {
		t.Fatalf("plan holds %d requests, want %d", len(plan), want)
	}
	hits, fresh := 0, map[uint64]bool{}
	hot := map[uint64]bool{}
	for _, s := range hotSet(3) {
		hot[s.Seed] = true
	}
	for i, r := range plan {
		if i > 0 && r.due < plan[i-1].due || r.due < 0 || r.due >= w {
			t.Fatalf("request %d due at %v: out of order or outside the window", i, r.due)
		}
		if r.hit {
			hits++
			if !hot[r.spec.Seed] {
				t.Errorf("hit %d is not a hot spec", i)
			}
			continue
		}
		if hot[r.spec.Seed] || fresh[r.spec.Seed] {
			t.Errorf("fresh request %d reuses seed %d", i, r.spec.Seed)
		}
		fresh[r.spec.Seed] = true
	}
	if want := int(float64(len(plan))*fleetHitShare + 0.5); hits != want {
		t.Errorf("%d hits, want %d", hits, want)
	}
	// The second half of a traced run must not repeat the first's specs.
	for _, r := range fleetPlan(3, 1, w) {
		if !r.hit && fresh[r.spec.Seed] {
			t.Fatalf("phase 1 repeats fresh seed %d of phase 0", r.spec.Seed)
		}
	}
}

// tinyCase is a simulator case that runs in milliseconds.
func tinyCase() simCase {
	cfg := doram.DefaultSimConfig(doram.SchemeDORAM, "libq")
	cfg.NumNS = 0
	cfg.TraceLen = 50
	return simCase{"tiny", cfg}
}

func TestWrongDigestIsAFailedOp(t *testing.T) {
	b := newTestBench(defaultSeed)
	s := &simRunner{b: b, cases: []simCase{tinyCase()}, ref: make([]string, 1)}
	s.want = map[string]string{"tiny": "0000000000000000"}
	if _, _, res := s.call(0, nil); res != nil {
		t.Error("a result with a wrong digest was accepted")
	}
	if b.attempted != 1 || b.failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1", b.attempted, b.failed)
	}

	// With the right digest, repeats agree and nothing fails.
	b = newTestBench(defaultSeed)
	s = &simRunner{b: b, cases: []simCase{tinyCase()}, ref: make([]string, 1)}
	res, err := doram.Simulate(tinyCase().cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.want = map[string]string{"tiny": resultDigest(res)}
	s.call(0, nil)
	s.call(0, nil)
	if b.attempted != 2 || b.failed != 0 {
		t.Errorf("attempted %d failed %d, want 2 and 0: %v", b.attempted, b.failed, b.problems)
	}
}

func TestDigestTableCoversEveryCase(t *testing.T) {
	for _, c := range corunCases(defaultSeed) {
		if corunDigests[c.name] == "" {
			t.Errorf("no corun digest for %s", c.name)
		}
	}
	for _, c := range idleCases(defaultSeed) {
		if idleDigests[c.name] == "" {
			t.Errorf("no idle digest for %s", c.name)
		}
	}
}

func TestWrongFleetBytesAreFailedOps(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet")
	}
	b := newTestBench(5)
	r := &fleetRun{b: b, hot: hotSet(5)}
	f, err := startFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	r.f, r.c = f, newClient(f.url)
	if err := r.warm(); err != nil {
		t.Fatal(err)
	}

	// Untampered, the hot set matches in-process runs.
	r.checks()
	if b.failed != 0 {
		t.Fatalf("clean fleet: %d failed: %v", b.failed, b.problems)
	}

	// A hit whose bytes differ from the warmed result fails, and so does
	// the hot-set comparison with an in-process run.
	r.hotBytes[0] = append([]byte(nil), r.hotBytes[0]...)
	r.hotBytes[0][len(r.hotBytes[0])/2] ^= 1
	out := loadGen(r.c, time.Now(), []fleetReq{{hit: true, hot: 0, spec: r.hot[0]}}, r.hotBytes, nil)
	if out[0].ok {
		t.Error("a hit with wrong bytes was accepted")
	}
	b.failed = 0
	r.checks()
	if b.failed != 1 {
		t.Errorf("tampered hot bytes: %d failed ops, want 1", b.failed)
	}

	// A fresh spec whose recorded bytes are wrong fails the re-fetch check.
	fresh := fleetSpec("libq", 12345)
	out = loadGen(r.c, time.Now(), []fleetReq{{spec: fresh}}, r.hotBytes, nil)
	if !out[0].ok {
		t.Fatalf("fresh request failed: %s", out[0].err)
	}
	out[0].sum[0] ^= 1
	r.misses = out
	b.failed = 0
	r.checks()
	if b.failed != 2 { // the tampered hot spec again, and the fresh one
		t.Errorf("tampered fresh bytes: %d failed ops, want 2: %v", b.failed, b.problems)
	}
}

// lyingStore is a kvStore that returns a stale value for one address.
type lyingStore struct {
	m     map[uint64][]byte
	stale uint64
}

func (s *lyingStore) Read(addr uint64) ([]byte, error) {
	if addr == s.stale {
		return make([]byte, 64), nil
	}
	return s.m[addr], nil
}

func (s *lyingStore) Write(addr uint64, data []byte) error {
	s.m[addr] = append([]byte(nil), data...)
	return nil
}

func (s *lyingStore) StashHighWater() int { return 0 }
func (s *lyingStore) Capacity() uint64    { return 64 }

func TestWrongORAMReadIsAFailedOp(t *testing.T) {
	b := newTestBench(1)
	r := &kvRun{b: b, store: &lyingStore{m: map[uint64][]byte{}, stale: 3}, keys: 8,
		shadow: make([]uint64, 8), buf: make([]byte, 64), want: make([]byte, 64)}
	for a := uint64(0); a < 8; a++ {
		blockValue(r.buf, 1, a, 0)
		r.store.Write(a, r.buf)
	}
	for _, op := range []kvOp{{false, 2}, {true, 2}, {false, 2}, {false, 3}} {
		err := r.do(op)
		b.check(err == nil, "%v", err)
	}
	if b.attempted != 4 || b.failed != 1 {
		t.Errorf("attempted %d failed %d, want 4 and 1 (the stale read of 3): %v", b.attempted, b.failed, b.problems)
	}
}

func TestORAMWindowAgainstTheRealStore(t *testing.T) {
	if testing.Short() {
		t.Skip("fills an ORAM")
	}
	for _, traced := range []bool{false, true} {
		b := newTestBench(2)
		b.traced = traced
		r := &kvRun{b: b, ops: newOpStream(2)}
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.window(300*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		_, plain := r.store.(*doram.ORAM)
		if plain == traced {
			t.Fatalf("traced=%v: after the untraced half the store is %T", traced, r.store)
		}
		if traced {
			if _, err := r.window(300*time.Millisecond, newSpanLog(time.Now())); err != nil {
				t.Fatal(err)
			}
		}
		if b.failed != 0 || b.attempted < 100 {
			t.Fatalf("traced=%v: attempted %d failed %d: %v", traced, b.attempted, b.failed, b.problems)
		}
		if traced {
			parts := b.layer["oram.client_self_us_per_op"]
			for _, k := range kindNames {
				parts += b.layer[k+"_us_per_op"]
			}
			if parts <= 0 || b.layer["backend.seal_us_per_op"] <= 0 {
				t.Errorf("traced window split no time over the backend: %v", b.layer)
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: program %+v, BENCHMARK.json %+v", what, i, d, g)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)

	gated := map[string]bool{}
	for _, w := range bj.Workloads {
		gated[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
		if w.Name == "serve-fleet" && !strings.Contains(w.Why, fmt.Sprintf("within %d ms", fleetLimit.Milliseconds())) {
			t.Errorf("serve-fleet's why does not state the %v goodput limit: %q", fleetLimit, w.Why)
		}
	}
	for _, name := range workloadNames() {
		if !gated[name] {
			t.Errorf("workload %q is not in BENCHMARK.json", name)
		}
	}

	// Every printed result carries exactly these metrics.
	for _, traced := range []bool{false, true} {
		b := newTestBench(1)
		b.traced = traced
		b.attempted = 1
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		res := b.finish()
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: result has %d metrics, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: result lacks %s in %s", traced, d.Name, d.Unit)
			}
		}
	}
}
