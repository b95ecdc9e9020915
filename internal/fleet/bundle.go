package fleet

// A bundle is the unit of the content-addressed replay-log store: the
// recorded substrate one campaign's replay runs depend on — program name,
// allocation-address log, env-call streams — as the JSON of a
// core.ReplayState. The logs marshal with their entries sorted, so
// identical recordings always produce identical bundles and therefore
// identical digests: the fleet ships each recording at most once per
// worker, and a worker verifies a fetched or cached bundle against its key
// alone.

import (
	"encoding/json"
	"fmt"

	"instantcheck/internal/core"
	"instantcheck/internal/replay"
)

// MarshalBundle serializes a recorded replay state and returns the bytes
// with their content digest — the blob and the key the coordinator
// registers it under.
func MarshalBundle(st core.ReplayState) ([]byte, replay.Digest, error) {
	if st.Addr == nil || st.Env == nil {
		return nil, replay.Digest{}, fmt.Errorf("fleet: bundle needs recorded logs")
	}
	b, err := json.Marshal(st)
	if err != nil {
		return nil, replay.Digest{}, fmt.Errorf("fleet: marshal bundle: %w", err)
	}
	return b, replay.DigestBytes(b), nil
}

// UnmarshalBundle reads a bundle back into the replay state a worker hands
// to core.Campaign.NewReplayRunner. It rejects malformed or truncated
// JSON, bytes after it, an unknown field, a value of the wrong type, a
// repeated log entry and a missing log.
func UnmarshalBundle(raw []byte) (core.ReplayState, error) {
	var st core.ReplayState
	if err := replay.DecodeStrict(raw, &st); err != nil {
		return core.ReplayState{}, fmt.Errorf("fleet: bad bundle: %w", err)
	}
	if st.Addr == nil || st.Env == nil {
		return core.ReplayState{}, fmt.Errorf("fleet: bundle misses a recorded log")
	}
	return st, nil
}
