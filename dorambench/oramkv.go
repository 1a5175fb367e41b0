package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"time"

	"doram"
	"doram/internal/oram"
	"doram/internal/oram/backend"
)

// keySpaceShare is the share of Capacity() that set-up fills. An eighth
// (32767 blocks at L=16) takes ~3.5 s per set-up on a 2-CPU host.
const keySpaceShare = 8

// kvStore is the block-store surface the workload drives: *doram.ORAM,
// or a timed client in the traced half of a traced run.
type kvStore interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, data []byte) error
	StashHighWater() int
	Capacity() uint64
}

// kvOp is one operation of the seeded op stream.
type kvOp struct {
	write bool
	addr  uint64
}

// opStream yields a 50/50 Read/Write mix over uniform addresses in
// [0, keys); the same seed gives the same stream.
type opStream struct{ rng *rand.Rand }

func newOpStream(seed uint64) *opStream {
	return &opStream{rand.New(rand.NewPCG(seed, 0x0a7a))}
}

func (s *opStream) next(keys uint64) kvOp {
	return kvOp{write: s.rng.IntN(2) == 1, addr: s.rng.Uint64N(keys)}
}

// blockValue is the content of addr after its version-th write: every
// write stores a value no earlier write stored, so a stale read shows.
func blockValue(buf []byte, seed, addr, version uint64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], seed^addr<<20^version<<44^uint64(i)*0x9e3779b97f4a7c15)
	}
}

// kvRun is the oram-kv workload's state.
type kvRun struct {
	b       *bench
	store   kvStore
	timer   *backendTimer // nil until the traced half of a traced run
	keys    uint64
	shadow  []uint64 // last version written per address
	ops     *opStream
	buf     []byte
	want    []byte
	opCount int
}

func runORAMKV(b *bench) error {
	r := &kvRun{b: b, ops: newOpStream(b.seed)}
	err := b.timeSetups(r.setup, func() {
		r.store, r.shadow = nil, nil
		runtime.GC()
	})
	if err != nil {
		return err
	}
	err = b.measure(r.window)
	b.layer["oram.stash_high_water"] = float64(r.store.StashHighWater())
	return err
}

// setup builds the ORAM with doram.NewORAM and DefaultORAMConfig, the
// store users get, and writes every address of the key space once.
func (r *kvRun) setup() error {
	o, err := doram.NewORAM(doram.DefaultORAMConfig())
	if err != nil {
		return err
	}
	return r.fill(o)
}

// useTimedStore replaces the store with a timed client holding the same
// contents, for the traced half of a traced run. Its fill is not timed.
func (r *kvRun) useTimedStore() error {
	r.store, r.shadow = nil, nil
	runtime.GC()
	r.timer = &backendTimer{}
	c, err := newTimedClient(doram.DefaultORAMConfig(), r.timer)
	if err != nil {
		return err
	}
	return r.fill(c)
}

func (r *kvRun) fill(store kvStore) error {
	size := doram.DefaultORAMConfig().BlockSize
	r.store = store
	r.keys = store.Capacity() / keySpaceShare
	r.shadow = make([]uint64, r.keys)
	r.buf = make([]byte, size)
	r.want = make([]byte, size)
	for a := uint64(0); a < r.keys; a++ {
		blockValue(r.buf, r.b.seed, a, 0)
		if err := store.Write(a, r.buf); err != nil {
			return fmt.Errorf("fill %d: %w", a, err)
		}
	}
	return nil
}

// do runs one op and checks it against the shadow map.
func (r *kvRun) do(op kvOp) error {
	if op.write {
		r.shadow[op.addr]++
		blockValue(r.buf, r.b.seed, op.addr, r.shadow[op.addr])
		return r.store.Write(op.addr, r.buf)
	}
	got, err := r.store.Read(op.addr)
	if err != nil {
		return err
	}
	blockValue(r.want, r.b.seed, op.addr, r.shadow[op.addr])
	if string(got) != string(r.want) {
		return fmt.Errorf("read %d: not the version-%d value last written", op.addr, r.shadow[op.addr])
	}
	return nil
}

// opSpanEvery samples which ops of a traced window get per-call spans.
const opSpanEvery = 256

// kvBlock is how many consecutive ops (~100 ms of them) share one host
// noise figure and one throughput sample.
const kvBlock = 1000

func (r *kvRun) window(d time.Duration, spans *spanLog) (phase, error) {
	b := r.b
	var all, rates []float64 // op times in µs; per-block rates
	var blockStarts []time.Time
	var isWrite []bool
	var self time.Duration
	var m0, m1 runtime.MemStats
	if spans != nil {
		r.timer.reset()
		r.timer.armed = true
		defer func() { r.timer.armed = false }()
	}
	t := r.timer
	runtime.ReadMemStats(&m0)
	host := startHostSampler()
	start := time.Now()
	blockStart := start
	for time.Since(start) < d {
		op := r.ops.next(r.keys)
		r.opCount++
		if spans != nil {
			t.children, t.kinds = t.children[:0], t.kinds[:0]
		}
		t0 := time.Now()
		err := r.do(op)
		t1 := time.Now()
		b.check(err == nil, "op %d: %v", r.opCount, err)
		if err != nil {
			continue
		}
		all = append(all, us(t1.Sub(t0)))
		isWrite = append(isWrite, op.write)
		if len(all)%kvBlock == 0 {
			rates = append(rates, kvBlock/t1.Sub(blockStart).Seconds())
			blockStarts = append(blockStarts, blockStart)
			blockStart = t1
		}
		if spans != nil {
			if r.opCount%opSpanEvery == 0 {
				name := "oram.Read"
				if op.write {
					name = "oram.Write"
				}
				req := strconv.Itoa(r.opCount)
				id := spans.add(name, req, 0, t0, t1)
				for i, c := range t.children {
					spans.add(kindNames[t.kinds[i]], req, id, t.base.Add(c.start), t.base.Add(c.end))
				}
			}
			self += selfTime(interval{t0.Sub(t.base), t1.Sub(t.base)}, t.children) // rewrites children
		}
	}
	host.close()
	runtime.ReadMemStats(&m1)

	// The timed figures come from the blocks that started on a quiet host;
	// the last, partial block is left out.
	blockNoise := make([]float64, len(blockStarts))
	for j, t0 := range blockStarts {
		blockNoise[j] = host.noiseFrom(t0)
	}
	keep := quietest(blockNoise)
	var quiet, reads, writes []float64
	for _, j := range keep {
		for k := j * kvBlock; k < (j+1)*kvBlock; k++ {
			quiet = append(quiet, all[k])
			if isWrite[k] {
				writes = append(writes, all[k])
			} else {
				reads = append(reads, all[k])
			}
		}
	}
	n := float64(len(all))
	p50 := median(quiet) / 1000
	if spans == nil {
		if len(quiet) < 100 {
			b.refuse("window held %d ops in quiet blocks; p90 needs 100", len(quiet))
		}
		b.e2e["ops_per_s"] = median(pick(rates, keep))
		b.e2e["op_p50_ms"] = p50
		b.e2e["op_p90_ms"] = quantile(quiet, 0.9) / 1000
		b.layer["oram.read_p50_us"] = median(reads)
		b.layer["oram.write_p50_us"] = median(writes)
		b.report["ops_us"] = percentiles(all)
		b.report["quiet_ops_us"] = percentiles(quiet)
		b.report["quiet_blocks"] = fmt.Sprintf("%d of %d", len(keep), len(rates))
		b.report["reads_us"] = percentiles(reads)
		b.report["writes_us"] = percentiles(writes)
		b.report["key_space"] = r.keys
		// The traced half runs on a timed client, filled before the
		// profile starts.
		if b.traced {
			return phase{p50ms: p50}, r.useTimedStore()
		}
		return phase{p50ms: p50}, nil
	}
	if n > 0 {
		for k, name := range kindNames {
			b.layer[name+"_us_per_op"] = us(t.sums[k]) / n
		}
		b.layer["oram.client_self_us_per_op"] = us(self) / n
		b.layer["oram.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	}
	b.report["traced_ops_us"] = percentiles(all)
	return phase{p50ms: p50}, nil
}

// Backend call kinds the timing wrappers tell apart.
const (
	kindSeal = iota
	kindOpen
	kindStorage
	kindPosmap
	kindEvict
	numKinds
)

var kindNames = [numKinds]string{"backend.seal", "backend.open", "backend.storage", "backend.posmap", "backend.evict"}

// backendTimer accumulates time spent in each backend seam while armed,
// and the intervals of the current op's calls for self time and spans.
// The client is single-threaded, so it needs no lock.
type backendTimer struct {
	armed    bool
	sums     [numKinds]time.Duration
	children []interval // offsets from base
	kinds    []int
	base     time.Time
}

func (t *backendTimer) reset() {
	t.sums = [numKinds]time.Duration{}
	t.base = time.Now()
}

func (t *backendTimer) begin() time.Time {
	if !t.armed {
		return time.Time{}
	}
	return time.Now()
}

func (t *backendTimer) end(kind int, t0 time.Time) {
	if !t.armed {
		return
	}
	t1 := time.Now()
	t.sums[kind] += t1.Sub(t0)
	t.children = append(t.children, interval{t0.Sub(t.base), t1.Sub(t.base)})
	t.kinds = append(t.kinds, kind)
}

// timedClient is a functional ORAM assembled as doram.NewORAM assembles
// DefaultORAMConfig's instance, with every backend seam wrapped in a timer.
type timedClient struct{ c *oram.Client }

func newTimedClient(cfg doram.ORAMConfig, t *backendTimer) (*timedClient, error) {
	p := oram.Params{Levels: cfg.Levels, Z: cfg.Z, BlockSize: cfg.BlockSize,
		TopCacheLevels: cfg.TopCacheLevels, StashCapacity: cfg.StashCapacity}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	evict, err := backend.NewEviction(cfg.Eviction)
	if err != nil {
		return nil, err
	}
	enc, err := backend.NewEncryptor(cfg.Encryptor, cfg.Key, cfg.WithMAC)
	if err != nil {
		return nil, err
	}
	c, err := oram.NewClientWithOptions(p, oram.ClientOptions{
		Storage:   timedStorage{oram.NewMemStorage(p.NumNodes()), t},
		Position:  timedPosMap{oram.NewFlatMap(p.MaxBlocks()), t},
		Encryptor: timedEncryptor{enc, t},
		Eviction:  timedEviction{evict, t},
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &timedClient{c}, nil
}

func (c *timedClient) Read(addr uint64) ([]byte, error) {
	data, _, err := c.c.Access(oram.OpRead, addr, nil)
	return data, err
}

func (c *timedClient) Write(addr uint64, data []byte) error {
	_, _, err := c.c.Access(oram.OpWrite, addr, data)
	return err
}

func (c *timedClient) StashHighWater() int { return c.c.StashMax() }
func (c *timedClient) Capacity() uint64    { return c.c.Params().MaxBlocks() }

type timedStorage struct {
	s backend.Storage
	t *backendTimer
}

func (w timedStorage) ReadBucket(n backend.NodeID) []byte {
	t0 := w.t.begin()
	defer w.t.end(kindStorage, t0)
	return w.s.ReadBucket(n)
}

func (w timedStorage) WriteBucket(n backend.NodeID, buf []byte) {
	t0 := w.t.begin()
	defer w.t.end(kindStorage, t0)
	w.s.WriteBucket(n, buf)
}

type timedPosMap struct {
	m backend.PositionMap
	t *backendTimer
}

func (w timedPosMap) Get(addr uint64) uint64 {
	t0 := w.t.begin()
	defer w.t.end(kindPosmap, t0)
	return w.m.Get(addr)
}

func (w timedPosMap) Set(addr, leaf uint64) {
	t0 := w.t.begin()
	defer w.t.end(kindPosmap, t0)
	w.m.Set(addr, leaf)
}

func (w timedPosMap) Len() int { return w.m.Len() }

type timedEncryptor struct {
	e backend.Encryptor
	t *backendTimer
}

func (w timedEncryptor) Name() string          { return w.e.Name() }
func (w timedEncryptor) SealedBytes(n int) int { return w.e.SealedBytes(n) }

func (w timedEncryptor) Seal(n backend.NodeID, version uint64, plain []byte) []byte {
	t0 := w.t.begin()
	defer w.t.end(kindSeal, t0)
	return w.e.Seal(n, version, plain)
}

func (w timedEncryptor) Open(n backend.NodeID, version uint64, sealed []byte) ([]byte, error) {
	t0 := w.t.begin()
	defer w.t.end(kindOpen, t0)
	return w.e.Open(n, version, sealed)
}

type timedEviction struct {
	e backend.EvictionStrategy
	t *backendTimer
}

func (w timedEviction) Name() string { return w.e.Name() }

func (w timedEviction) PlanLevel(s *backend.Stash, leaf uint64, level, levels, z int) []*backend.Block {
	t0 := w.t.begin()
	defer w.t.end(kindEvict, t0)
	return w.e.PlanLevel(s, leaf, level, levels, z)
}

func (w timedEviction) ExtraPaths(levels int) []uint64 {
	t0 := w.t.begin()
	defer w.t.end(kindEvict, t0)
	return w.e.ExtraPaths(levels)
}
