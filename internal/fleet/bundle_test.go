package fleet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// overlongEnvBundle is a bundle whose one env stream declares 1<<62
// values in a few bytes. The decoder used to pre-size the stream from
// that count and panic.
func overlongEnvBundle() []byte {
	addr := binary.AppendUvarint([]byte("icaddrlog1"), 0)
	env := binary.AppendUvarint([]byte("icenv1"), 1) // one stream
	env = binary.AppendUvarint(env, 0)               // tid
	env = binary.AppendUvarint(env, 4)               // name
	env = append(env, "rand"...)
	env = binary.AppendUvarint(env, 1<<62) // declared value count
	b := []byte(bundleMagic)
	for _, field := range [][]byte{[]byte("canneal"), addr, env} {
		b = binary.AppendUvarint(b, uint64(len(field)))
		b = append(b, field...)
	}
	return b
}

// FuzzUnmarshalBundle feeds arbitrary bytes to the decoder a worker runs
// on every fetched or cached bundle. It must return a state or an error,
// never panic. A decoded state must re-encode to a bundle that decodes and
// re-encodes to the same bytes, and a bundle MarshalBundle wrote must
// round-trip exactly.
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
	f.Add(overlongEnvBundle())
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
			t.Fatalf("round trip changed the bundle:\n%x\n%x", once, twice)
		}
	})
}
