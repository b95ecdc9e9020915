package replay

// Serialization for the recorded replay substrate. A fleet campaign records
// once on the coordinator and replays everywhere else, so the recorded
// allocation-address log and env-call streams must travel: this file gives
// both a deterministic binary form (identical content always serializes to
// identical bytes, so a content-addressed store can key blobs by digest and
// ship each recording exactly once per worker) and AddrLog a SHA-256 digest
// computed over that form.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// addrLogMagic heads a serialized AddrLog; a version bump is a format break.
const addrLogMagic = "icaddrlog1"

// envMagic heads a serialized Env stream set.
const envMagic = "icenv1"

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

// appendUvarint appends v in unsigned varint form.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// reader walks a serialized buffer with error latching, so decode paths
// check once at the end instead of after every field.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("replay: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a declared entry count and rejects one the remaining bytes
// cannot hold (every entry takes at least one byte), so a corrupt count
// can neither panic the decoder's pre-sizing nor allocate past the input.
func (r *reader) count() uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = fmt.Errorf("replay: declared count %d exceeds the %d remaining bytes", n, len(r.b))
		return 0
	}
	return n
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("replay: truncated string (want %d bytes, have %d)", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) magic(want string) {
	if r.err != nil {
		return
	}
	if len(r.b) < len(want) || string(r.b[:len(want)]) != want {
		r.err = fmt.Errorf("replay: bad magic (want %q)", want)
		return
	}
	r.b = r.b[len(want):]
}

// MarshalBinary serializes the log deterministically: entries sorted by
// (site, seq), so two logs with equal content produce equal bytes and
// therefore equal digests no matter what order recording inserted them.
func (l *AddrLog) MarshalBinary() ([]byte, error) {
	keys := make([]addrKey, 0, len(l.addrs))
	for k := range l.addrs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].site != keys[j].site {
			return keys[i].site < keys[j].site
		}
		return keys[i].seq < keys[j].seq
	})
	b := []byte(addrLogMagic)
	b = appendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k.site)
		b = appendUvarint(b, uint64(k.seq))
		b = appendUvarint(b, l.addrs[k])
	}
	return b, nil
}

// UnmarshalAddrLog reads the binary form back into a fresh log.
func UnmarshalAddrLog(b []byte) (*AddrLog, error) {
	r := &reader{b: b}
	r.magic(addrLogMagic)
	n := r.count()
	l := &AddrLog{addrs: make(map[addrKey]uint64, n)}
	for i := uint64(0); i < n && r.err == nil; i++ {
		site := r.string()
		seq := r.uvarint()
		addr := r.uvarint()
		if r.err == nil {
			l.addrs[addrKey{site, int(seq)}] = addr
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("replay: unmarshal addr log: %w", r.err)
	}
	if uint64(len(l.addrs)) != n {
		return nil, fmt.Errorf("replay: addr log declares %d entries, decoded %d (duplicate keys)", n, len(l.addrs))
	}
	return l, nil
}

// Digest returns the SHA-256 of the log's deterministic serialization —
// computed once at record time, then used as the content address under
// which the fleet ships the log to workers.
func (l *AddrLog) Digest() (Digest, error) {
	b, err := l.MarshalBinary()
	if err != nil {
		return Digest{}, err
	}
	return DigestBytes(b), nil
}

// MarshalBinary serializes the env's recorded call streams
// deterministically: streams sorted by (tid, name), values in call order.
// Cursor state and the generator are not part of the form — a deserialized
// env exists to be Forked by replay runs, which reset both.
func (e *Env) MarshalBinary() ([]byte, error) {
	keys := make([]envKey, 0, len(e.streams))
	for k := range e.streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tid != keys[j].tid {
			return keys[i].tid < keys[j].tid
		}
		return keys[i].name < keys[j].name
	})
	b := []byte(envMagic)
	b = appendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendUvarint(b, uint64(k.tid))
		b = appendString(b, k.name)
		s := e.streams[k]
		b = appendUvarint(b, uint64(len(s)))
		for _, v := range s {
			b = appendUvarint(b, v)
		}
	}
	return b, nil
}

// UnmarshalEnv reads the binary form back. The returned env carries only
// the recorded streams: it must be Forked (which installs a fresh
// generator and zero cursors) before replay runs draw from it, exactly how
// core.Runner.Replay consumes a recorded env.
func UnmarshalEnv(b []byte) (*Env, error) {
	r := &reader{b: b}
	r.magic(envMagic)
	n := r.count()
	e := &Env{
		streams: make(map[envKey][]uint64, n),
		cursor:  make(map[envKey]int, n),
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		tid := r.uvarint()
		name := r.string()
		vals := r.count()
		s := make([]uint64, 0, vals)
		for j := uint64(0); j < vals && r.err == nil; j++ {
			s = append(s, r.uvarint())
		}
		if r.err == nil {
			k := envKey{int(tid), name}
			e.streams[k] = s
			e.cursor[k] = 0
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("replay: unmarshal env: %w", r.err)
	}
	return e, nil
}
