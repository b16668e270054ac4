package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/comptest"
	"repro/internal/script"
)

// Artifact is one cached unit of parse+generate work: the
// cross-validated suite of a workbook and its generated scripts.
// Artifacts are shared read-only across concurrent jobs; nothing in
// the execution path below mutates them (stands and DUTs are built
// fresh per unit, mutation clones artefacts before transforming).
type Artifact struct {
	// Key is the hex SHA-256 of the workbook bytes.
	Key     string
	Suite   *comptest.Suite
	Scripts []*script.Script
	// Plan is the compiled execution plan (comptest.Compile): the
	// validated, classified form every job built from this workbook
	// executes, compiled once per content hash. nil when the workbook
	// generates scripts that do not compile — such jobs report the
	// validation failure per script.
	Plan *comptest.Plan
	// Source is the exact workbook text the artifact was built from —
	// what a distributing executor ships to remote workers, whose own
	// content-addressed caches then parse it once per node.
	Source []byte
}

// Select returns the artifact's generated scripts, or — when names is
// non-empty — the named subset in the given order. Unknown names are
// an error: a shard spec naming a script the workbook does not
// generate is a protocol bug, not an empty shard.
func (a *Artifact) Select(names []string) ([]*script.Script, error) {
	if len(names) == 0 {
		return a.Scripts, nil
	}
	byName := make(map[string]*script.Script, len(a.Scripts))
	for _, sc := range a.Scripts {
		byName[sc.Name] = sc
	}
	out := make([]*script.Script, 0, len(names))
	for _, n := range names {
		sc, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("workbook generates no script %q", n)
		}
		out = append(out, sc)
	}
	return out, nil
}

// Cache is the content-addressed artifact cache of the service:
// workbook bytes hash to the parsed suite and generated scripts, so
// repeated submissions of the same workbook skip both on the hot
// path. Lookups are single-flight: concurrent submissions of the same
// new workbook parse it exactly once, later arrivals block on the
// first parse. Parse failures are cached too — the mapping from bytes
// to outcome is deterministic, so re-parsing a known-bad workbook
// would only burn CPU.
//
// The cache is bounded: beyond cap distinct workbooks, the oldest
// entry is evicted (FIFO), so a stream of unique submissions cannot
// grow a long-lived server without bound. An evicted in-flight entry
// still completes for the loads already waiting on it; later loads of
// those bytes simply re-parse.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[[sha256.Size]byte]*cacheEntry
	order   [][sha256.Size]byte // insertion order, for FIFO eviction

	hits, misses atomic.Int64
}

type cacheEntry struct {
	ready chan struct{} // closed when art/err are set
	art   *Artifact
	err   error
}

// DefaultCacheCap bounds NewCache to this many distinct workbooks.
const DefaultCacheCap = 256

// NewCache builds an empty cache holding up to DefaultCacheCap
// distinct workbooks.
func NewCache() *Cache { return NewCacheCap(DefaultCacheCap) }

// NewCacheCap builds an empty cache holding up to cap distinct
// workbooks (minimum 1).
func NewCacheCap(cap int) *Cache {
	if cap < 1 {
		cap = 1
	}
	return &Cache{cap: cap, entries: map[[sha256.Size]byte]*cacheEntry{}}
}

// Load returns the artifact for the workbook bytes, parsing and
// generating scripts only on the first call per content hash.
func (c *Cache) Load(workbook []byte) (*Artifact, error) {
	key := sha256.Sum256(workbook)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.order = append(c.order, key)
		if len(c.order) > c.cap {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()

	if ok {
		<-e.ready
		c.hits.Add(1)
		return e.art, e.err
	}

	c.misses.Add(1)
	suite, err := comptest.LoadSuiteString(string(workbook))
	if err == nil {
		art := &Artifact{Key: hex.EncodeToString(key[:]), Suite: suite,
			Source: append([]byte(nil), workbook...)}
		if plan, perr := comptest.Compile(suite); perr == nil {
			art.Plan, art.Scripts = plan, plan.Scripts
			e.art = art
		} else if scripts, gerr := suite.GenerateScripts(); gerr == nil {
			// The workbook generates but does not compile: the
			// per-script reports of a plan-less artifact carry the
			// validation failure.
			art.Scripts = scripts
			e.art = art
		} else {
			err = gerr
		}
	}
	e.err = err
	close(e.ready)
	return e.art, e.err
}

// Hits returns the number of Load calls served from the cache.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of Load calls that parsed the workbook.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Len returns the number of distinct workbooks seen (including cached
// parse failures).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
