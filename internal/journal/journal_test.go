package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dca/internal/chaos"
)

const testRun = "0123456789abcdef0123456789abcdef"

func mkRecord(i int) (string, []byte) {
	return fmt.Sprintf("fn%d#%d", i%5, i), []byte(fmt.Sprintf(`{"verdict":%d,"reason":"r%d"}`, i%8, i))
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key, data := mkRecord(i)
		if err := j.Append(key, data); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func checkPrefix(t *testing.T, recs []Record, want int) {
	t.Helper()
	if len(recs) > want {
		t.Fatalf("recovered %d records, wrote only %d", len(recs), want)
	}
	for i, r := range recs {
		key, data := mkRecord(i)
		if r.Key != key || string(r.Data) != string(data) {
			t.Fatalf("record %d = {%s %s}, want {%s %s}", i, r.Key, r.Data, key, data)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j, rec, err := Open(path, testRun, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.Discarded != "" {
		t.Fatalf("fresh open recovered %+v", rec)
	}
	appendN(t, j, 25)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2, err := Open(path, testRun, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rec2.Records) != 25 {
		t.Fatalf("recovered %d records, want 25", len(rec2.Records))
	}
	checkPrefix(t, rec2.Records, 25)
	if rec2.TornBytes != 0 {
		t.Fatalf("TornBytes = %d on a clean journal", rec2.TornBytes)
	}
}

func TestResumeAppendsAfterRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j, _, err := Open(path, testRun, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 10)
	j.Close()

	j2, rec, err := Open(path, testRun, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 10 {
		t.Fatalf("recovered %d, want 10", len(rec.Records))
	}
	for i := 10; i < 20; i++ {
		key, data := mkRecord(i)
		if err := j2.Append(key, data); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()

	_, rec3, err := Open(path, testRun, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Records) != 20 {
		t.Fatalf("second resume recovered %d, want 20", len(rec3.Records))
	}
	checkPrefix(t, rec3.Records, 20)
}

// TestGetServesRecovered: Get answers from the records Open recovered —
// the latest record per key — and never from this process's own appends.
func TestGetServesRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j, _, err := Open(path, testRun, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Put("main#0", []byte(`{"verdict":1}`))
	j.Put("main#0", []byte(`{"verdict":0}`))
	if _, ok := j.Get("main#0"); ok {
		t.Fatal("Get served a record appended by this process")
	}
	j.Close()

	j2, _, err := Open(path, testRun, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if data, ok := j2.Get("main#0"); !ok || string(data) != `{"verdict":0}` {
		t.Fatalf("Get(main#0) = %s, %v; want the latest record", data, ok)
	}
	if _, ok := j2.Get("main#1"); ok {
		t.Fatal("Get served a key never journaled")
	}
}

func TestTornTailTruncated(t *testing.T) {
	for name, tail := range map[string]string{
		"no-newline":   `cafecafe {"fn":"x","index":`,
		"bad-crc":      "00000000 {\"fn\":\"x\",\"index\":1,\"data\":{}}\n",
		"not-json":     "d202ef8d garbage\n", // crc of "garbage"
		"half-a-line":  "caf",
		"empty-suffix": "\n\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			j, _, err := Open(path, testRun, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, j, 5)
			j.Close()

			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail)
			f.Close()

			j2, rec, err := Open(path, testRun, Options{Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Records) != 5 {
				t.Fatalf("recovered %d records, want 5", len(rec.Records))
			}
			if rec.TornBytes == 0 {
				t.Fatal("TornBytes = 0 despite appended garbage")
			}
			checkPrefix(t, rec.Records, 5)
			// The torn tail is gone: appending and re-reading works.
			key, data := mkRecord(5)
			if err := j2.Append(key, data); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			_, rec3, err := Open(path, testRun, Options{Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec3.Records) != 6 {
				t.Fatalf("after torn-tail repair recovered %d, want 6", len(rec3.Records))
			}
			checkPrefix(t, rec3.Records, 6)
		})
	}
}

func TestHeaderMismatchDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j, _, err := Open(path, testRun, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 3)
	j.Close()

	otherRun := "ffffffffffffffffffffffffffffffff"
	j2, rec, err := Open(path, otherRun, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d records across run keys", len(rec.Records))
	}
	if rec.Discarded == "" {
		t.Fatal("mismatched journal not reported as discarded")
	}
	appendN(t, j2, 2)
	j2.Close()

	_, rec3, err := Open(path, otherRun, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Records) != 2 {
		t.Fatalf("fresh journal after discard recovered %d, want 2", len(rec3.Records))
	}
}

func TestRecordVersionMismatchDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j, _, err := Open(path, testRun, Options{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 3)
	j.Close()

	_, rec, err := Open(path, testRun, Options{Version: 2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.Discarded == "" {
		t.Fatalf("cross-version resume returned %+v, want discard", rec)
	}
}

func TestOpenWithoutResumeDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j, _, err := Open(path, testRun, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 3)
	j.Close()

	_, rec, err := Open(path, testRun, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.Discarded == "" {
		t.Fatalf("non-resume open returned %+v, want discard", rec)
	}
}

func TestStickyWriteError(t *testing.T) {
	dir := t.TempDir()
	f := chaos.NewFaulty(chaos.OS{}, Plan(5, chaos.EIO, true))
	j, _, err := Open(filepath.Join(dir, "run.wal"), testRun, Options{FS: f, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	ok := 0
	for i := 0; i < 10; i++ {
		key, data := mkRecord(i)
		if err := j.Append(key, data); err != nil {
			firstErr = err
			break
		}
		ok++
	}
	if firstErr == nil {
		t.Fatal("no append failed under injected faults")
	}
	// Every later append reports the same sticky error without touching
	// the disk.
	opsBefore := f.Ops()
	key, data := mkRecord(11)
	if err := j.Append(key, data); err == nil {
		t.Fatal("append succeeded on a dead journal")
	}
	if f.Ops() != opsBefore {
		t.Fatal("dead journal still issued disk operations")
	}
	if j.Err() == nil {
		t.Fatal("Err() nil after write failure")
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close() nil after write failure")
	}

	// Recovery sees exactly the successfully appended records.
	_, rec, err := Open(j.Path(), testRun, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, rec.Records, ok)
}

// Plan builds the deterministic chaos plan used across the journal tests.
func Plan(at int64, kind chaos.Kind, sticky bool) chaos.Plan {
	return chaos.Plan{FailAt: at, Kind: kind, Sticky: sticky}
}

// TestChaosEveryFaultPoint is the crash-recovery property test: for every
// eligible disk operation of a journal-writing run, and for every fault
// kind, kill the writer at that operation and assert the reopened journal
// recovers exactly the records whose Append succeeded — bounded tail loss,
// never corruption.
func TestChaosEveryFaultPoint(t *testing.T) {
	const n = 12
	writeAll := func(fsys chaos.FS, path string) int {
		j, _, err := Open(path, testRun, Options{FS: fsys, SyncEvery: 3})
		if err != nil {
			return 0
		}
		ok := 0
		for i := 0; i < n; i++ {
			key, data := mkRecord(i)
			if err := j.Append(key, data); err != nil {
				break
			}
			ok++
		}
		// No Close: the process "dies" here. (The descriptor leaks for the
		// test's duration; the kernel has every successful write already.)
		return ok
	}

	total := chaos.CountOps(chaos.OS{}, false, func(fsys chaos.FS) {
		writeAll(fsys, filepath.Join(t.TempDir(), "run.wal"))
	})
	if total < int64(n) {
		t.Fatalf("counting run saw only %d ops", total)
	}

	for _, kind := range []chaos.Kind{chaos.EIO, chaos.ENOSPC, chaos.ShortWrite} {
		for at := int64(1); at <= total; at++ {
			t.Run(fmt.Sprintf("%s-op%d", kind, at), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.wal")
				f := chaos.NewFaulty(chaos.OS{}, chaos.Plan{FailAt: at, Kind: kind, Sticky: true})
				ok := writeAll(f, path)

				_, rec, err := Open(path, testRun, Options{Resume: true})
				if err != nil {
					// The journal file may not exist at all (fault hit the
					// first open); that is a clean fresh start, not an error.
					if _, serr := os.Stat(path); os.IsNotExist(serr) {
						return
					}
					t.Fatalf("reopen after fault: %v", err)
				}
				// Write-through appends mean every successful Append
				// survives a process kill. One extra record may appear when
				// the injected fault hit the batch fsync *after* that
				// record's write had already reached the kernel — its
				// durability was unconfirmed, not its validity. Nothing torn
				// ever parses back.
				if len(rec.Records) < ok || len(rec.Records) > ok+1 {
					t.Fatalf("recovered %d records, %d appends succeeded", len(rec.Records), ok)
				}
				checkPrefix(t, rec.Records, len(rec.Records))
			})
		}
	}
}

// TestChaosMonkey: under seeded random faults the journal may lose appends
// (reported as errors) but recovery never yields a record that was not
// written, out of order, or corrupt.
func TestChaosMonkey(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			m := chaos.NewMonkey(chaos.OS{}, seed, 0.15, false)
			ok := 0
			if j, _, err := Open(path, testRun, Options{FS: m, SyncEvery: 2}); err == nil {
				for i := 0; i < 20; i++ {
					key, data := mkRecord(i)
					if err := j.Append(key, data); err != nil {
						break
					}
					ok++
				}
			}
			_, rec, err := Open(path, testRun, Options{Resume: true})
			if err != nil {
				if _, serr := os.Stat(path); os.IsNotExist(serr) {
					return
				}
				t.Fatalf("reopen: %v", err)
			}
			// Same slack as the deterministic sweep: a failed batch fsync
			// can leave one written-but-unconfirmed record behind.
			if len(rec.Records) < ok || len(rec.Records) > ok+1 {
				t.Fatalf("recovered %d records, %d appends succeeded", len(rec.Records), ok)
			}
			checkPrefix(t, rec.Records, len(rec.Records))
		})
	}
}
