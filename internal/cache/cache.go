// Package cache is the two-tier verdict store of the incremental-analysis
// subsystem: a byte-budgeted in-memory LRU in front of an optional
// persistent on-disk store. Keys are content-addressed fingerprints
// (internal/fingerprint), values are opaque serialized verdict records.
//
// The disk tier is built for hostile conditions: entries live in sharded
// directories (two-hex-digit prefix), writes go through a temp file plus
// fsync plus atomic rename so a crash can never leave a half-written entry
// under its final name, every entry carries a versioned, checksummed
// header, and any read that fails validation — truncation, corruption,
// version mismatch — degrades to a miss and removes the bad entry. A cache
// can lose every entry and only cost recomputation; it can never serve a
// wrong verdict short of a 128-bit fingerprint collision.
//
// Every disk operation goes through a chaos.FS (OpenFS), so the claims
// above are exercised by fault-injection property tests, and a circuit
// breaker guards the disk tier: repeated I/O errors trip it open and the
// cache runs memory-only for a cooldown, probing the disk back to health
// (half-open) instead of hammering a dead device on every lookup.
package cache

import (
	"encoding/binary"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dca/internal/chaos"
	"dca/internal/obs"
)

// FormatVersion is the on-disk container format version. Bump it when the
// header layout changes; all older entries then read as version misses.
const FormatVersion = 1

// DefaultMemBytes is the in-memory tier's default byte budget.
const DefaultMemBytes = 64 << 20

// entryOverhead approximates the per-entry bookkeeping cost counted
// against the memory budget, beyond key and value bytes.
const entryOverhead = 128

// staleTmpAge is how old an orphaned temp file must be before Open removes
// it — old enough that no live writer can still own it. Package variable so
// tests can age files artificially instead of sleeping.
var staleTmpAge = time.Hour

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	MemHits       uint64 `json:"mem_hits"`
	DiskHits      uint64 `json:"disk_hits"`
	Misses        uint64 `json:"misses"`
	Puts          uint64 `json:"puts"`
	Evictions     uint64 `json:"evictions"`
	Corruptions   uint64 `json:"corruptions"`
	VersionMisses uint64 `json:"version_misses"`
	// DiskWriteErrors / DiskReadErrors count disk-tier I/O failures (not
	// corruption, which has its own counter): each write error silently cost
	// a future recomputation, each read error degraded a lookup to a miss.
	DiskWriteErrors uint64 `json:"disk_write_errors"`
	DiskReadErrors  uint64 `json:"disk_read_errors"`
	// StaleTempsRemoved counts orphaned temp files (crashed writers) swept
	// at Open.
	StaleTempsRemoved uint64 `json:"stale_temps_removed"`
	// BreakerState is the disk breaker's current state ("closed", "open",
	// "half-open"); BreakerTrips counts how often it opened.
	BreakerState string `json:"breaker_state,omitempty"`
	BreakerTrips uint64 `json:"breaker_trips"`
	MemEntries   int    `json:"mem_entries"`
	MemBytes     int64  `json:"mem_bytes"`
}

// Hits returns total hits across both tiers.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits }

// entry is one resident cache entry; entries form an intrusive LRU list
// (front = most recently used).
type entry struct {
	key        string
	val        []byte
	prev, next *entry
}

// Cache is a concurrency-safe two-tier verdict store.
type Cache struct {
	dir        string   // "" = memory-only
	appVersion uint32   // caller's record-schema version, validated on read
	fs         chaos.FS // every disk operation goes through here
	br         *breaker // guards the disk tier against a dying device

	mu       sync.Mutex
	entries  map[string]*entry
	front    *entry // most recently used
	back     *entry // least recently used
	memBytes int64
	maxBytes int64

	trace   atomic.Value // obs.Sink; nil until SetTrace
	logOnce sync.Once

	memHits, diskHits, misses   atomic.Uint64
	puts, evictions             atomic.Uint64
	corruptions, versionMisses  atomic.Uint64
	diskWriteErrs, diskReadErrs atomic.Uint64
	staleTemps                  atomic.Uint64
}

// Open creates a two-tier cache on the real filesystem. dir is the
// persistent tier's root directory ("" disables the disk tier); it is
// created if missing. maxMemBytes bounds the in-memory tier (<= 0 selects
// DefaultMemBytes). appVersion is the caller's record-schema version:
// entries written under a different appVersion read as misses, so a
// record-format change can never decode stale bytes.
func Open(dir string, maxMemBytes int64, appVersion uint32) (*Cache, error) {
	return OpenFS(chaos.OS{}, dir, maxMemBytes, appVersion)
}

// OpenFS is Open on an explicit filesystem — the seam the chaos tests
// inject faults through. Opening also sweeps temp files orphaned by
// crashed writers (older than an hour) out of the shard directories.
func OpenFS(fsys chaos.FS, dir string, maxMemBytes int64, appVersion uint32) (*Cache, error) {
	if maxMemBytes <= 0 {
		maxMemBytes = DefaultMemBytes
	}
	c := &Cache{
		dir:        dir,
		appVersion: appVersion,
		fs:         fsys,
		br:         newBreaker(),
		entries:    map[string]*entry{},
		maxBytes:   maxMemBytes,
	}
	if dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		c.cleanStaleTemps()
	}
	return c, nil
}

// SetTrace routes disk-fault trace events (obs.StageCache, outcome
// "error") to s. Safe to call at any time; nil disables.
func (c *Cache) SetTrace(s obs.Sink) {
	c.trace.Store(&s)
}

// ConfigureBreaker tunes the disk circuit breaker: trip after threshold
// consecutive I/O errors, probe again after cooldown. Zero values keep the
// defaults.
func (c *Cache) ConfigureBreaker(threshold int, cooldown time.Duration) {
	c.br.mu.Lock()
	defer c.br.mu.Unlock()
	if threshold > 0 {
		c.br.threshold = threshold
	}
	if cooldown > 0 {
		c.br.cooldown = cooldown
	}
}

// cleanStaleTemps removes orphaned ".tmp-*" files left in shard
// directories by writers that died between CreateTemp and Rename. Only
// files older than staleTmpAge go: a younger one may belong to a live
// writer racing this Open. All errors are ignored — the sweep is
// best-effort hygiene, not correctness.
func (c *Cache) cleanStaleTemps() {
	shards, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTmpAge)
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		sdir := filepath.Join(c.dir, shard.Name())
		files, err := c.fs.ReadDir(sdir)
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasPrefix(f.Name(), ".tmp-") {
				continue
			}
			info, err := f.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
			if c.fs.Remove(filepath.Join(sdir, f.Name())) == nil {
				c.staleTemps.Add(1)
			}
		}
	}
}

// Dir returns the persistent tier's root, or "" for a memory-only cache.
func (c *Cache) Dir() string { return c.dir }

// Get returns the value stored under key, consulting memory first and then
// disk. A disk hit is promoted into the memory tier. The returned slice
// must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.moveToFront(e)
		val := e.val // read under the lock: a concurrent Put rewrites e.val
		c.mu.Unlock()
		c.memHits.Add(1)
		return val, true
	}
	c.mu.Unlock()

	if c.dir != "" && validKey(key) {
		if val, ok := c.readDisk(key); ok {
			c.insert(key, val)
			c.diskHits.Add(1)
			return val, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores val under key in both tiers. Values larger than the whole
// memory budget skip the memory tier but still persist.
func (c *Cache) Put(key string, val []byte) {
	c.puts.Add(1)
	c.insert(key, val)
	if c.dir != "" && validKey(key) {
		c.writeDisk(key, val)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := len(c.entries), c.memBytes
	c.mu.Unlock()
	state, trips := c.br.snapshot()
	return Stats{
		MemHits:           c.memHits.Load(),
		DiskHits:          c.diskHits.Load(),
		Misses:            c.misses.Load(),
		Puts:              c.puts.Load(),
		Evictions:         c.evictions.Load(),
		Corruptions:       c.corruptions.Load(),
		VersionMisses:     c.versionMisses.Load(),
		DiskWriteErrors:   c.diskWriteErrs.Load(),
		DiskReadErrors:    c.diskReadErrs.Load(),
		StaleTempsRemoved: c.staleTemps.Load(),
		BreakerState:      state,
		BreakerTrips:      trips,
		MemEntries:        entries,
		MemBytes:          bytes,
	}
}

// ---------------------------------------------------------------- memory

func (c *Cache) insert(key string, val []byte) {
	size := int64(len(key) + len(val) + entryOverhead)
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.memBytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.moveToFront(e)
	} else {
		e := &entry{key: key, val: val}
		c.entries[key] = e
		c.pushFront(e)
		c.memBytes += size
	}
	for c.memBytes > c.maxBytes && c.back != nil {
		lru := c.back
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.memBytes -= int64(len(lru.key) + len(lru.val) + entryOverhead)
		c.evictions.Add(1)
	}
}

func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = nil, c.front
	if c.front != nil {
		c.front.prev = e
	}
	c.front = e
	if c.back == nil {
		c.back = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *entry) {
	if c.front == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// ---------------------------------------------------------------- disk

// Entry header: magic, container format version, caller record version,
// payload length, FNV-64a payload checksum — 28 bytes, little endian.
var magic = [4]byte{'D', 'C', 'A', 'V'}

const headerSize = 4 + 4 + 4 + 8 + 8

// ValidKey reports whether key is a well-formed cache key: a lowercase-hex
// fingerprint string of at least three digits. The peer-cache protocol's
// HTTP handlers (`GET/PUT /cache/{key}`) validate inbound keys with it
// before touching either tier, so a request path can never escape the
// shard layout or name a special file.
func ValidKey(key string) bool { return validKey(key) }

// validKey restricts disk keys to lowercase-hex fingerprint strings, so a
// key can never escape the shard layout or name a special file.
func validKey(key string) bool {
	if len(key) < 3 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path shards entries by the first two hex digits of the key.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:])
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (c *Cache) encode(val []byte) []byte {
	buf := make([]byte, headerSize+len(val))
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], FormatVersion)
	binary.LittleEndian.PutUint32(buf[8:12], c.appVersion)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(val)))
	binary.LittleEndian.PutUint64(buf[20:28], checksum(val))
	copy(buf[headerSize:], val)
	return buf
}

// writeDisk persists one entry via temp file + fsync + atomic rename. A
// failed write costs a future recomputation, never a wrong result — but it
// is not silent: it is counted, fed to the breaker, surfaced as a trace
// event, and logged once per process.
func (c *Cache) writeDisk(key string, val []byte) {
	if !c.br.allow() {
		return
	}
	if err := c.tryWriteDisk(key, val); err != nil {
		c.br.failure()
		c.diskWriteErrs.Add(1)
		c.noteWriteError(key, err)
		return
	}
	c.br.success()
}

func (c *Cache) tryWriteDisk(key string, val []byte) error {
	dst := c.path(key)
	dir := filepath.Dir(dst)
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := c.fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(c.encode(val))
	// Sync before rename: otherwise a machine crash could publish an entry
	// whose bytes never reached the disk.
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		c.fs.Remove(name)
		switch {
		case werr != nil:
			return werr
		case serr != nil:
			return serr
		default:
			return cerr
		}
	}
	if err := c.fs.Rename(name, dst); err != nil {
		c.fs.Remove(name)
		return err
	}
	return nil
}

// noteWriteError surfaces one disk-write failure: a trace event per error
// (fed to /metrics via the analysis fold) and one process-wide log line —
// the first failure is news, the next thousand are noise.
func (c *Cache) noteWriteError(key string, err error) {
	if s := c.trace.Load(); s != nil {
		if sink := *s.(*obs.Sink); sink != nil {
			sink.Emit(obs.Event{Stage: obs.StageCache, Outcome: obs.OutcomeError, Err: err.Error()})
		}
	}
	c.logOnce.Do(func() {
		log.Printf("cache: disk write failed (entry %s): %v (further disk errors counted, not logged)", key, err)
	})
}

// readDisk loads and validates one entry. Anything malformed — short file,
// bad magic, length or checksum mismatch — counts as a corruption, removes
// the entry, and reads as a miss; a version mismatch does the same under
// its own counter. Only I/O errors feed the breaker: a missing entry is a
// healthy disk saying no, and corruption is bad bytes on a working disk.
func (c *Cache) readDisk(key string) ([]byte, bool) {
	if !c.br.allow() {
		return nil, false
	}
	p := c.path(key)
	data, err := c.fs.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			c.br.success()
			return nil, false
		}
		c.br.failure()
		c.diskReadErrs.Add(1)
		return nil, false
	}
	c.br.success()
	if len(data) < headerSize || [4]byte(data[0:4]) != magic {
		c.corrupt(p)
		return nil, false
	}
	format := binary.LittleEndian.Uint32(data[4:8])
	app := binary.LittleEndian.Uint32(data[8:12])
	if format != FormatVersion || app != c.appVersion {
		c.versionMisses.Add(1)
		c.fs.Remove(p)
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[12:20])
	if n != uint64(len(data)-headerSize) {
		c.corrupt(p)
		return nil, false
	}
	val := data[headerSize:]
	if checksum(val) != binary.LittleEndian.Uint64(data[20:28]) {
		c.corrupt(p)
		return nil, false
	}
	return val, true
}

func (c *Cache) corrupt(path string) {
	c.corruptions.Add(1)
	c.fs.Remove(path)
}
