package replay

// Serialization for the recorded replay substrate. A fleet campaign records
// once on the coordinator and replays everywhere else, so the recorded
// allocation-address log and env-call streams must travel. Both marshal to
// JSON with their entries sorted, so identical content always serializes
// to identical bytes and a content-addressed store can key blobs by their
// SHA-256 digest and ship each recording exactly once per worker.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// Digest is the SHA-256 of a deterministic serialization, the key of the
// fleet's content-addressed replay-log store.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// ParseDigest reads the hex form back.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha256.Size {
		return d, fmt.Errorf("replay: bad digest %q", s)
	}
	copy(d[:], b)
	return d, nil
}

// DigestBytes hashes an arbitrary serialized blob — the helper the blob
// store uses to verify fetched content against its key.
func DigestBytes(b []byte) Digest { return sha256.Sum256(b) }

// DecodeStrict decodes the JSON value b into v, rejecting a field v does
// not declare and any byte after the value. The fleet decodes every bundle
// through it, so a bundle written by a different build fails loudly
// instead of replaying without the data it carried.
func DecodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if n := dec.InputOffset(); n != int64(len(b)) {
		return fmt.Errorf("replay: %d bytes after the JSON value", int64(len(b))-n)
	}
	return nil
}

// addrEntry is one logged allocation in the JSON form.
type addrEntry struct {
	Site string `json:"site"`
	Seq  int    `json:"seq"`
	Addr uint64 `json:"addr"`
}

// MarshalJSON writes the log as a list of entries sorted by (site, seq), so
// two logs with equal content produce equal bytes and therefore equal
// digests no matter what order recording inserted them.
func (l *AddrLog) MarshalJSON() ([]byte, error) {
	entries := make([]addrEntry, 0, len(l.addrs))
	for k, a := range l.addrs {
		entries = append(entries, addrEntry{k.site, k.seq, a})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Site != entries[j].Site {
			return entries[i].Site < entries[j].Site
		}
		return entries[i].Seq < entries[j].Seq
	})
	return json.Marshal(entries)
}

// UnmarshalJSON reads the entry list back, rejecting a repeated (site, seq).
func (l *AddrLog) UnmarshalJSON(b []byte) error {
	var entries []addrEntry
	if err := DecodeStrict(b, &entries); err != nil {
		return fmt.Errorf("replay: addr log: %w", err)
	}
	l.addrs = make(map[addrKey]uint64, len(entries))
	for _, e := range entries {
		k := addrKey{e.Site, e.Seq}
		if _, dup := l.addrs[k]; dup {
			return fmt.Errorf("replay: addr log repeats allocation %s#%d", e.Site, e.Seq)
		}
		l.addrs[k] = e.Addr
	}
	return nil
}

// envEntry is one recorded call stream in the JSON form.
type envEntry struct {
	Tid    int      `json:"tid"`
	Name   string   `json:"name"`
	Values []uint64 `json:"values"`
}

// MarshalJSON writes the env's recorded call streams sorted by (tid, name),
// values in call order. Cursor state and the generator are not part of the
// form: a decoded env exists to be Forked by replay runs, which reset both.
func (e *Env) MarshalJSON() ([]byte, error) {
	entries := make([]envEntry, 0, len(e.streams))
	for k, s := range e.streams {
		entries = append(entries, envEntry{k.tid, k.name, s})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Tid != entries[j].Tid {
			return entries[i].Tid < entries[j].Tid
		}
		return entries[i].Name < entries[j].Name
	})
	return json.Marshal(entries)
}

// UnmarshalJSON reads the streams back, rejecting a repeated (tid, name).
// The env carries only the recorded streams: it must be Forked (which
// installs a fresh generator and zero cursors) before replay runs draw from
// it, exactly how core.Runner.Replay consumes a recorded env.
func (e *Env) UnmarshalJSON(b []byte) error {
	var entries []envEntry
	if err := DecodeStrict(b, &entries); err != nil {
		return fmt.Errorf("replay: env: %w", err)
	}
	e.streams = make(map[envKey][]uint64, len(entries))
	e.cursor = make(map[envKey]int, len(entries))
	for _, en := range entries {
		k := envKey{en.Tid, en.Name}
		if _, dup := e.streams[k]; dup {
			return fmt.Errorf("replay: env repeats stream %d/%s", en.Tid, en.Name)
		}
		e.streams[k] = en.Values
	}
	return nil
}
