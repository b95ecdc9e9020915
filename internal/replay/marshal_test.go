package replay

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestAddrLogMarshalRoundTrip: marshal → unmarshal reproduces every entry.
func TestAddrLogMarshalRoundTrip(t *testing.T) {
	l := NewAddrLog()
	l.Record("alloc@main.go:10", 0, 0x1000)
	l.Record("alloc@main.go:10", 1, 0x2000)
	l.Record("alloc@worker.go:44", 0, 0x8000_0000_0000)
	l.Record("z", 7, 1)

	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	got := new(AddrLog)
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip lost entries: %d != %d", got.Len(), l.Len())
	}
	for k, v := range l.addrs {
		g, ok := got.Lookup(k.site, k.seq)
		if !ok || g != v {
			t.Errorf("entry %s#%d: got %#x ok=%v, want %#x", k.site, k.seq, g, ok, v)
		}
	}
}

// TestAddrLogDigestDeterministic: insertion order must not matter — the
// digest of the bytes is a content address, so two recordings of the same
// execution must key the same blob.
func TestAddrLogDigestDeterministic(t *testing.T) {
	a, b := NewAddrLog(), NewAddrLog()
	entries := []struct {
		site string
		seq  int
		addr uint64
	}{
		{"s1", 0, 10}, {"s1", 1, 20}, {"s2", 0, 30}, {"s0", 5, 40},
	}
	for _, e := range entries {
		a.Record(e.site, e.seq, e.addr)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		b.Record(entries[i].site, entries[i].seq, entries[i].addr)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("bytes depend on insertion order:\n%s\n%s", ja, jb)
	}

	b.Record("s9", 0, 99)
	jb2, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(jb2, jb) {
		t.Fatal("bytes did not change with content")
	}
}

// TestDigestHexRoundTrip: the wire form of a digest parses back.
func TestDigestHexRoundTrip(t *testing.T) {
	d := DigestBytes([]byte(`[{"site":"s","seq":0,"addr":42}]`))
	got, err := ParseDigest(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("hex round trip: %s != %s", got, d)
	}
	if _, err := ParseDigest("zz"); err == nil {
		t.Fatal("ParseDigest accepted garbage")
	}
}

// TestEnvRoundTrip: a recorded env's streams survive serialization, and a
// fork of the deserialized env replays the identical values — the property
// worker-side replay depends on.
func TestEnvRoundTrip(t *testing.T) {
	e := NewEnv(42)
	var want []uint64
	for i := 0; i < 5; i++ {
		want = append(want, e.Rand(0))
	}
	want = append(want, e.Next(3, "gettimeofday"))

	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	back := new(Env)
	if err := json.Unmarshal(b, back); err != nil {
		t.Fatal(err)
	}

	// Both the original and the deserialized env fork to identical replays.
	f1, f2 := e.Fork(7), back.Fork(7)
	for i := 0; i < 5; i++ {
		v1, v2 := f1.Rand(0), f2.Rand(0)
		if v1 != want[i] || v2 != want[i] {
			t.Fatalf("draw %d: fork-of-original %d, fork-of-decoded %d, want %d", i, v1, v2, want[i])
		}
	}
	if v1, v2 := f1.Next(3, "gettimeofday"), f2.Next(3, "gettimeofday"); v1 != want[5] || v2 != want[5] {
		t.Fatalf("tid-3 stream: %d / %d, want %d", v1, v2, want[5])
	}
	// Past the recorded streams both forks draw from the fork seed, so they
	// still agree with each other (the determinism-across-workers property).
	for i := 0; i < 3; i++ {
		if v1, v2 := f1.Rand(0), f2.Rand(0); v1 != v2 {
			t.Fatalf("overflow draw %d disagrees: %d != %d", i, v1, v2)
		}
	}
}

// TestEnvMarshalDeterministic: stream map order must not leak into bytes.
func TestEnvMarshalDeterministic(t *testing.T) {
	mk := func() []byte {
		e := NewEnv(1)
		e.Rand(2)
		e.Rand(0)
		e.Next(1, "gettimeofday")
		e.Rand(1)
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := mk()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(first, mk()) {
			t.Fatal("env serialization not deterministic")
		}
	}
}

// TestUnmarshalRejectsCorruption: truncated or mislabeled blobs error out
// instead of yielding a silently wrong replay substrate.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	l := NewAddrLog()
	l.Record("site", 0, 0xdead)
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b[:len(b)-1], new(AddrLog)); err == nil {
		t.Error("truncated addr log accepted")
	}

	e := NewEnv(1)
	e.Rand(0)
	eb, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(eb[:len(eb)-1], new(Env)); err == nil {
		t.Error("truncated env accepted")
	}
	if err := json.Unmarshal(eb, new(AddrLog)); err == nil {
		t.Error("env bytes accepted as addr log")
	}
	if err := json.Unmarshal(b, new(Env)); err == nil {
		t.Error("addr log bytes accepted as env")
	}
}
