package fleet

import (
	"bytes"
	"strings"
	"testing"

	"instantcheck/internal/core"
	"instantcheck/internal/replay"
)

// repeatedKeyBundle logs the same allocation twice. Decoding it into the
// log's map would silently keep one entry, so the decoder rejects it.
const repeatedKeyBundle = `{"program":"cholesky","addr":[{"site":"a","seq":0,"addr":4096},{"site":"a","seq":0,"addr":4096}],"env":[]}`

// TestBundleFormat pins the bundle's JSON form. Coordinator and workers
// must agree on it byte for byte, because a bundle's digest is its name:
// a hand-built state must encode to exactly these bytes, entries sorted by
// (site, seq) and streams by (tid, name) whatever order they were recorded
// in, and the recorded bundles of two small workloads, one that allocates
// and one that draws env values, must keep their digests.
func TestBundleFormat(t *testing.T) {
	const want = `{"program":"demo",` +
		`"addr":[{"site":"demo.node","seq":0,"addr":268435456},{"site":"demo.node","seq":1,"addr":268435584}],` +
		`"env":[{"tid":0,"name":"rand","values":[8674665223082153551,15352856648520921629]},` +
		`{"tid":1,"name":"gettimeofday","values":[5577006791947779410]}]}`
	addr := replay.NewAddrLog()
	addr.Record("demo.node", 1, 0x10000080)
	addr.Record("demo.node", 0, 0x10000000)
	env := replay.NewEnv(1)
	env.Gettimeofday(1)
	env.Rand(0)
	env.Rand(0)
	raw, _, err := MarshalBundle(core.ReplayState{Program: "demo", Addr: addr, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != want {
		t.Fatalf("hand-built bundle:\n got %s\nwant %s", raw, want)
	}

	for _, tc := range []struct{ app, digest string }{
		{"cholesky", "6ada90888ad9dde695ac07e9a869b0e04504cf55356e5e6be102e20a0190cab9"},
		{"canneal", "06b81235b54421eb058b2fd685a91ab7cff10ea18f3f93f47178c407541d3a6a"},
	} {
		_, runner, _ := recordedRunner(t, fleetSpec(tc.app, 2))
		st, err := runner.ReplayState()
		if err != nil {
			t.Fatal(err)
		}
		_, digest, err := MarshalBundle(st)
		if err != nil {
			t.Fatal(err)
		}
		if digest.String() != tc.digest {
			t.Errorf("%s: bundle digest %s, want %s", tc.app, digest, tc.digest)
		}
	}
}

// FuzzUnmarshalBundle feeds arbitrary bytes to the decoder a worker runs
// on every fetched or cached bundle. It must return a state or an error,
// never panic. A decoded state must re-encode to a bundle that decodes and
// re-encodes to the same bytes, and a bundle MarshalBundle wrote must
// round-trip exactly.
//
// Run it with -fuzzminimizetime 100x, as `make fuzz-smoke` does: inputs
// grown from the 17 KB canneal seed take long to minimize, and under the
// default 60 s minimize budget a 15 s run spends its last seconds
// minimizing at 0 execs/s.
func FuzzUnmarshalBundle(f *testing.F) {
	_, runner, _ := recordedRunner(f, fleetSpec("canneal", 2))
	st, err := runner.ReplayState()
	if err != nil {
		f.Fatal(err)
	}
	raw, _, err := MarshalBundle(st)
	if err != nil {
		f.Fatal(err)
	}
	back, err := UnmarshalBundle(raw)
	if err != nil {
		f.Fatal(err)
	}
	if again, _, err := MarshalBundle(back); err != nil || !bytes.Equal(again, raw) {
		f.Fatalf("a recorded bundle does not round-trip (err %v)", err)
	}
	f.Add(raw)
	f.Add([]byte(repeatedKeyBundle))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := UnmarshalBundle(data)
		if err != nil {
			return
		}
		once, _, err := MarshalBundle(st)
		if err != nil {
			t.Fatalf("re-marshal a decoded bundle: %v", err)
		}
		st2, err := UnmarshalBundle(once)
		if err != nil {
			t.Fatalf("a re-marshaled bundle does not decode: %v", err)
		}
		twice, _, err := MarshalBundle(st2)
		if err != nil {
			t.Fatalf("re-marshal a round-tripped bundle: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed the bundle:\n%s\n%s", once, twice)
		}
	})
}

// TestUnmarshalBundleRejects lists the bundles a worker must refuse: each
// is well-formed JSON, or nearly so, that MarshalBundle cannot have written.
func TestUnmarshalBundleRejects(t *testing.T) {
	const ok = `{"program":"p","addr":[{"site":"a","seq":0,"addr":1}],"env":[{"tid":0,"name":"rand","values":[5]}]}`
	if _, err := UnmarshalBundle([]byte(ok)); err != nil {
		t.Fatalf("the valid base case fails: %v", err)
	}
	for _, tc := range []struct{ name, bundle string }{
		{"trailing space", ok + " "},
		{"trailing value", ok + "{}"},
		{"unknown field", strings.Replace(ok, `"program"`, `"seed":1,"program"`, 1)},
		{"unknown addr field", strings.Replace(ok, `"addr":1`, `"addr":1,"tid":0`, 1)},
		{"unknown env field", strings.Replace(ok, `"values"`, `"seq":0,"values"`, 1)},
		{"repeated site and seq", repeatedKeyBundle},
		{"repeated tid and name", strings.Replace(ok, `"env":[`, `"env":[{"tid":0,"name":"rand","values":[6]},`, 1)},
		{"string seq", strings.Replace(ok, `"seq":0`, `"seq":"0"`, 1)},
		{"negative address", strings.Replace(ok, `"addr":1`, `"addr":-1`, 1)},
		{"fractional value", strings.Replace(ok, `[5]`, `[5.5]`, 1)},
		{"numeric program", strings.Replace(ok, `"p"`, `7`, 1)},
		{"addr log as object", strings.Replace(ok, `"addr":[{"site":"a","seq":0,"addr":1}]`, `"addr":{}`, 1)},
		{"missing addr", strings.Replace(ok, `"addr":[{"site":"a","seq":0,"addr":1}],`, ``, 1)},
		{"null addr", strings.Replace(ok, `"addr":[{"site":"a","seq":0,"addr":1}]`, `"addr":null`, 1)},
		{"missing env", strings.Replace(ok, `,"env":[{"tid":0,"name":"rand","values":[5]}]`, ``, 1)},
		{"not JSON", "not a bundle at all"},
	} {
		if tc.bundle == ok {
			t.Fatalf("%s: the case edits nothing", tc.name)
		}
		if _, err := UnmarshalBundle([]byte(tc.bundle)); err == nil {
			t.Errorf("%s: %s decoded cleanly", tc.name, tc.bundle)
		}
	}
}
