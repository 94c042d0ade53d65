package run

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/prov"
)

// cacheSchema versions the on-disk envelope; bumping it orphans (never
// corrupts) old entries. Schema 2: snapshots may carry histogram cells
// (stats.Snapshot.Hists), and traced scenarios key on the Trace flag.
// Schema 3: the envelope carries its scenario key and the SHA-256 of the
// outcome bytes.
const cacheSchema = 3

// Cache is a persistent scenario-outcome store: one JSON file per outcome
// under <dir>/<code-identity>/<scenario-key>.json. The scenario key covers
// everything that determines the outcome (resolved config, mode,
// benchmark, seed, budgets, scale); the code-identity subdirectory pins
// the source revision, so a rebuilt binary never reads results a different
// simulator produced. Unreadable, mismatched or altered entries are cache
// misses, never errors.
type Cache struct {
	dir string
}

// envelope is the on-disk record. Outcome holds the outcome's JSON bytes
// exactly as marshalled, so Digest, their SHA-256 in hex, can be checked
// against the bytes read back.
type envelope struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	Digest  string          `json:"sha256"`
	Outcome json.RawMessage `json:"outcome"`
}

// OpenCache opens (creating as needed) the cache rooted at dir, scoped to
// the running binary's code identity.
func OpenCache(dir string) (*Cache, error) {
	sub := filepath.Join(dir, prov.CodeIdentity())
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return nil, fmt.Errorf("run: open cache: %w", err)
	}
	return &Cache{dir: sub}, nil
}

// Dir reports the resolved (code-identity-scoped) cache directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get loads the outcome stored under key, reporting ok=false on any miss:
// absent, unreadable, written by a different schema, stored for another
// key, or with outcome bytes that do not match their digest (an edited or
// damaged entry). Put overwrites such an entry.
func (c *Cache) Get(key string) (*Outcome, bool) {
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Schema != cacheSchema || env.Key != key || env.Digest != digest(env.Outcome) {
		return nil, false
	}
	var o Outcome
	if err := json.Unmarshal(env.Outcome, &o); err != nil {
		return nil, false
	}
	return &o, true
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Put stores the outcome under key. The write goes through a temporary
// file and an atomic rename, so concurrent writers and readers (parallel
// workers, a second report process) never observe a torn entry.
func (c *Cache) Put(key string, o *Outcome) error {
	ob, err := json.Marshal(o)
	if err != nil {
		return fmt.Errorf("run: cache put: %w", err)
	}
	b, err := json.Marshal(envelope{Schema: cacheSchema, Key: key, Digest: digest(ob), Outcome: ob})
	if err != nil {
		return fmt.Errorf("run: cache put: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("run: cache put: %w", err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("run: cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("run: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("run: cache put: %w", err)
	}
	return nil
}
