// Package journal is the write-ahead run journal that makes long analysis
// suites durable: one checksummed record per completed loop verdict,
// appended as the suite runs, so a crash, OOM-kill, or SIGKILL throws away
// at most the tail the kernel had not yet accepted — never the completed
// work. `dca analyze -journal run.wal -resume` replays the journal, skips
// every already-verdicted loop, and continues exactly where the previous
// process died.
//
// A Journal is a core.VerdictCache: the analysis kernel consults it as its
// run-scoped tier (core.Options.Journal). Get serves the records recovered
// at Open; Put appends.
//
// # Format
//
// The journal is line-oriented: every line is
//
//	<8-hex CRC32C> <JSON payload>\n
//
// with the checksum taken over the JSON bytes. Line one is the header — the
// container format version, the caller's record-schema version, and the
// run key (the program-plus-configuration fingerprint from core.RunKey) —
// and every following line is one Record: a loop's key (core.JournalKey)
// and its verdict record. The framing makes replay torn-tail tolerant:
// recovery scans lines in order and stops at the first one that is
// incomplete, fails its checksum, or does not parse; everything before that
// point is intact by construction, everything after is discarded and
// truncated away before appending resumes.
//
// # Durability policy
//
// Append writes each record through to the operating system immediately
// (no user-space buffering), so a process death — however violent — loses
// nothing that Append already accepted. fsync is batched: every
// Options.SyncEvery records and on Close, bounding what a machine crash
// can lose to the last unsynced batch.
//
// # Recovery semantics
//
// Open in resume mode validates the header before trusting any record: a
// journal written by a different program, configuration, format version,
// or record-schema version is discarded wholesale (reported in
// Recovery.Discarded) and the run starts fresh — a stale journal can
// degrade to recomputation, never to wrong verdicts. The storage runs on
// chaos.FS, so every one of these claims is exercised by fault-injection
// tests rather than assumed.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"dca/internal/chaos"
	"dca/internal/obs"
)

// FormatVersion is the journal container format. Bump it when the framing
// or header layout changes; older journals are then discarded on open.
const FormatVersion = 2

// DefaultSyncEvery is the default fsync batch size.
const DefaultSyncEvery = 8

// Record is one journaled loop verdict. Key identifies the loop within the
// run (core.JournalKey: its function and loop index); Data is the
// serialized verdict record in the caller's schema, opaque to the journal.
type Record struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// header is the journal's first line.
type header struct {
	Magic   string `json:"magic"`
	Format  int    `json:"format"`
	Version uint32 `json:"version"` // caller's record-schema version
	Run     string `json:"run"`     // program+configuration fingerprint
}

const magic = "dcawal"

// Options tunes a journal.
type Options struct {
	// Version is the caller's record-schema version (core.CacheRecordVersion
	// for verdict records). Journals written under a different version are
	// discarded on open, never decoded.
	Version uint32
	// SyncEvery is the fsync batch size: the journal fsyncs after this many
	// appends and on Close (<= 0 means DefaultSyncEvery; 1 syncs every
	// record).
	SyncEvery int
	// Resume replays an existing journal with a matching header instead of
	// discarding it.
	Resume bool
	// FS is the filesystem the journal runs on (nil means the real one).
	FS chaos.FS
	// Trace, when non-nil, receives one obs.StageJournal "error" event at
	// the journal's first write failure; later appends fail silently on
	// the sticky error.
	Trace obs.Sink
}

// Recovery describes what Open found in an existing journal file.
type Recovery struct {
	// Records are the valid records replayed from a matching previous run,
	// in append order. Nil unless Options.Resume was set.
	Records []Record
	// Discarded is non-empty when an existing journal was thrown away, and
	// says why (header mismatch, unreadable header, resume off).
	Discarded string
	// TornBytes counts trailing bytes dropped as a torn tail.
	TornBytes int64
}

// Journal is an append-only run journal. Get, Put and Append are safe for
// concurrent use — analysis workers complete loops in nondeterministic
// order. Write errors are sticky: after the first one the journal drops
// further records and reports the error from Err and Close, so a dying
// disk degrades the run to non-resumable instead of killing it.
type Journal struct {
	path      string
	recovered map[string][]byte // read-only after Open
	trace     obs.Sink

	mu       sync.Mutex
	f        chaos.File
	pending  int // appends since the last fsync
	appended int
	sync     int
	err      error
}

// Open creates or resumes the journal at path for the given run key.
// With opt.Resume set, an existing journal with a matching header has its
// valid record prefix replayed into the Recovery and is appended to; any
// torn tail is truncated first. Without Resume — or on any header mismatch
// — an existing file is discarded and a fresh journal is started.
func Open(path string, runKey string, opt Options) (*Journal, *Recovery, error) {
	fsys := opt.FS
	if fsys == nil {
		fsys = chaos.OS{}
	}
	syncEvery := opt.SyncEvery
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}

	rec := &Recovery{}
	validLen := int64(0)
	data, readErr := fsys.ReadFile(path)
	exists := readErr == nil
	if exists && len(data) > 0 {
		hdr, records, valid := scan(data)
		switch {
		case !opt.Resume:
			rec.Discarded = "resume not requested"
		case hdr == nil:
			rec.Discarded = "unreadable journal header"
		case hdr.Magic != magic || hdr.Format != FormatVersion:
			rec.Discarded = fmt.Sprintf("journal format %d, want %d", hdr.Format, FormatVersion)
		case hdr.Version != opt.Version:
			rec.Discarded = fmt.Sprintf("record schema version %d, want %d", hdr.Version, opt.Version)
		case hdr.Run != runKey:
			rec.Discarded = "journal belongs to a different program or configuration"
		default:
			rec.Records = records
			rec.TornBytes = int64(len(data)) - valid
			validLen = valid
		}
	}

	// O_APPEND places every write at the current end of file, so after the
	// truncation below new records land exactly after the valid prefix — no
	// seek, which chaos.File deliberately does not offer.
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	// Cut the file back to its valid prefix — the torn tail on resume,
	// everything on a fresh start — before any new bytes land after it.
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncate %s: %w", path, err)
	}

	j := &Journal{path: path, f: f, sync: syncEvery}
	if validLen == 0 {
		hdr := header{Magic: magic, Format: FormatVersion, Version: opt.Version, Run: runKey}
		if err := j.writeLine(hdr, true); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: write header: %w", err)
		}
	}
	// Set after the header: a failed Open is the caller's error to report.
	j.trace = opt.Trace
	j.recovered = make(map[string][]byte, len(rec.Records))
	for _, r := range rec.Records {
		// Append order; a duplicate key keeps the latest record.
		j.recovered[r.Key] = r.Data
	}
	return j, rec, nil
}

// Get returns the record a previous run journaled under key, if Open
// recovered one. Records appended by this process are not served: a loop
// is journaled once per run.
func (j *Journal) Get(key string) ([]byte, bool) {
	data, ok := j.recovered[key]
	return data, ok
}

// Put appends a record, like Append. Its error is not returned: the first
// one reaches the trace sink given to Open, and Err reports it.
func (j *Journal) Put(key string, data []byte) {
	j.Append(key, data)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append journals one completed loop verdict under key. The record reaches
// the operating system before Append returns; it reaches stable storage at
// the next batch fsync. After the first write error the journal is dead:
// further appends are dropped and the error is reported from Err.
func (j *Journal) Append(key string, data []byte) error {
	rec := Record{Key: key, Data: json.RawMessage(data)}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.writeLineLocked(rec, false); err != nil {
		return err
	}
	j.appended++
	return nil
}

// Appended returns how many records this process has journaled (recovered
// records are not counted).
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Err returns the journal's sticky write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Sync forces an fsync of everything appended so far.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// Close fsyncs and closes the journal. The first sticky write error, if
// any, is returned in preference to close errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.err
	}
	serr := j.syncLocked()
	cerr := j.f.Close()
	j.f = nil
	switch {
	case j.err != nil:
		return j.err
	case serr != nil:
		return serr
	default:
		return cerr
	}
}

func (j *Journal) writeLine(v any, forceSync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLineLocked(v, forceSync)
}

func (j *Journal) writeLineLocked(v any, forceSync bool) error {
	payload, err := json.Marshal(v)
	if err != nil {
		// Records are plain structs; this cannot happen, but a marshal bug
		// must not be silently dropped.
		j.fail(fmt.Errorf("journal: marshal: %w", err))
		return j.err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, crcTable))
	line = append(line, payload...)
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		j.fail(fmt.Errorf("journal: write: %w", err))
		return j.err
	}
	j.pending++
	if forceSync || j.pending >= j.sync {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (j *Journal) syncLocked() error {
	if j.err != nil || j.f == nil || j.pending == 0 {
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.fail(fmt.Errorf("journal: sync: %w", err))
		return j.err
	}
	j.pending = 0
	return nil
}

// fail records the first write error, and reports it to the trace sink;
// the journal is dead from here on.
func (j *Journal) fail(err error) {
	if j.err != nil {
		return
	}
	j.err = err
	if j.trace != nil {
		j.trace.Emit(obs.Event{Stage: obs.StageJournal, Outcome: obs.OutcomeError, Err: err.Error()})
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// scan parses a journal image into its header, valid records, and the byte
// length of the valid prefix. It stops at the first torn, corrupt, or
// unparsable line; nothing after that point is trusted.
func scan(data []byte) (hdr *header, records []Record, validLen int64) {
	off := int64(0)
	first := true
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn final line: no terminator reached the disk
		}
		line := data[:nl]
		payload, ok := checkLine(line)
		if !ok {
			break
		}
		if first {
			var h header
			if json.Unmarshal(payload, &h) != nil {
				break
			}
			hdr = &h
			first = false
		} else {
			var r Record
			if json.Unmarshal(payload, &r) != nil {
				break
			}
			records = append(records, r)
		}
		off += int64(nl) + 1
		data = data[nl+1:]
	}
	return hdr, records, off
}

// checkLine validates one "crc payload" line and returns the payload.
func checkLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return nil, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, false
	}
	return payload, true
}
