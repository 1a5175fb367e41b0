package main

import (
	"bytes"
	"compress/gzip"
	"testing"
)

func TestClassifyPrefersGCThenSchedulerThenInnermostPackage(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"crypto/aes.encrypt", "doram/internal/oram/backend.(*ctrHMAC).Seal", "doram/internal/oram.(*Client).Access"}, "backend"},
		{[]string{"doram/internal/mc.(*Controller).Tick", "doram/internal/core.(*System).Run"}, "mc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "doram/internal/mc.(*Controller).Tick"}, groupGC},
		{[]string{"runtime.futex", "runtime.notesleep", "doram/internal/core.(*memPool).barrier"}, groupSched},
		{[]string{"sync.(*WaitGroup).Wait", "doram/internal/core.(*System).Run"}, groupSched},
		{[]string{"net/http.(*conn).serve"}, groupOther},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// protoBuf is a minimal protobuf writer for building test profiles.
type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *protoBuf) field(num int, v uint64) { b.varint(uint64(num) << 3); b.varint(v) }

func (b *protoBuf) bytesField(num int, p []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}

func (b *protoBuf) packed(num int, vs ...uint64) {
	var inner protoBuf
	for _, v := range vs {
		inner.varint(v)
	}
	b.bytesField(num, inner.Bytes())
}

func TestGroupProfileDecodesAndSumsToAll(t *testing.T) {
	strs := []string{"", "doram/internal/mc.(*Controller).Tick", "doram/internal/core.(*System).Run",
		"runtime.gcBgMarkWorker", "main.main", "doram/internal/oram/backend.(*Stash).Add"}
	var p protoBuf
	sample := func(count uint64, locs ...uint64) {
		var s protoBuf
		if len(locs) == 1 {
			s.field(1, locs[0]) // unpacked, as runtime/pprof writes short lists
		} else {
			s.packed(1, locs...)
		}
		s.packed(2, count, count*10_000_000)
		p.bytesField(2, s.Bytes())
	}
	sample(3, 1, 2) // mc, under core
	sample(2, 2)    // core
	sample(4, 3)    // gc
	sample(1, 4)    // other
	sample(5, 5, 1) // backend (inlined stack: innermost line first)
	for id, funcs := range map[uint64][]uint64{1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {5, 2}} {
		var loc protoBuf
		loc.field(1, id)
		for _, f := range funcs {
			var line protoBuf
			line.field(1, f)
			loc.bytesField(4, line.Bytes())
		}
		p.bytesField(4, loc.Bytes())
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		var fn protoBuf
		fn.field(1, id)
		fn.field(2, id)
		p.bytesField(5, fn.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	got, err := groupProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"mc": 3, "core": 2, groupGC: 4, groupOther: 1, "backend": 5}
	total := int64(0)
	for g, n := range want {
		if got.Groups[g] != n {
			t.Errorf("group %s = %d samples, want %d", g, got.Groups[g], n)
		}
		total += n
	}
	if got.Samples != total || len(got.Groups) != len(want) {
		t.Errorf("samples %d over %d groups, want %d over %d", got.Samples, len(got.Groups), total, len(want))
	}
	sum := 0.0
	for g := range got.Groups {
		sum += got.share(g)
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestGroupProfileRejectsGarbage(t *testing.T) {
	if _, err := groupProfile([]byte("not a profile")); err == nil {
		t.Error("groupProfile accepted bytes that are not gzip")
	}
}
