package main

import (
	"embed"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Fixture files. The tables are compared byte-for-byte whenever a pass runs
// the workload's whole program set; the per-loop rows ("unit\tfn\tindex\t
// verdict\treason", one per loop) are compared for any subset.
const (
	fxNPBTables  = "npb_tables.txt"
	fxNPBLoops   = "npb_loops.txt"
	fxPLDSTables = "plds_tables.txt"
	fxPLDSRows   = "plds_rows.txt"
	fxFleetLoops = "fleet_loops.txt"
)

//go:embed fixtures/*.txt
var embedded embed.FS

// fixtures maps a fixture file name to its expected content.
type fixtures map[string]string

func loadFixtures() (fixtures, error) {
	fx := fixtures{}
	err := fs.WalkDir(embedded, "fixtures", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := embedded.ReadFile(path)
		fx[filepath.Base(path)] = string(data)
		return err
	})
	return fx, err
}

// checker compares pass outputs with the fixtures, or with update set
// records them for writing instead. It is safe for concurrent use.
type checker struct {
	fx     fixtures
	update bool

	mu          sync.Mutex
	written     fixtures                     // update mode: whole outputs
	writtenRows map[string]map[string]string // update mode: file -> key -> row
	mismatches  []string
}

func newChecker(fx fixtures, update bool) *checker {
	return &checker{fx: fx, update: update, written: fixtures{}, writtenRows: map[string]map[string]string{}}
}

func (c *checker) note(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.mismatches) < 20 {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// text compares a whole rendered output with its fixture.
func (c *checker) text(file, got string) bool {
	if c.update {
		c.mu.Lock()
		c.written[file] = got
		c.mu.Unlock()
		return true
	}
	if want, ok := c.fx[file]; !ok || want != got {
		c.note("%s: output differs from the fixture (%d bytes, want %d)", file, len(got), len(c.fx[file]))
		return false
	}
	return true
}

// rowKey is a row's first three tab-separated fields: unit, fn, index.
func rowKey(row string) string {
	f := strings.SplitN(row, "\t", 4)
	if len(f) < 3 {
		return row
	}
	return strings.Join(f[:3], "\t")
}

// rows compares per-loop rows with the fixture rows of the units (programs)
// the pass ran. It returns how many loops were expected or produced, and
// the keys of loops that are missing, unexpected or different.
func (c *checker) rows(file string, units []string, got []string) (attempted int, failed map[string]bool) {
	failed = map[string]bool{}
	if c.update {
		c.mu.Lock()
		if c.writtenRows[file] == nil {
			c.writtenRows[file] = map[string]string{}
		}
		for _, row := range got {
			c.writtenRows[file][rowKey(row)] = row
		}
		c.mu.Unlock()
		return len(got), failed
	}
	inUnit := map[string]bool{}
	for _, u := range units {
		inUnit[u] = true
	}
	want := map[string]string{}
	for _, row := range strings.Split(strings.TrimSuffix(c.fx[file], "\n"), "\n") {
		if row != "" && inUnit[strings.SplitN(row, "\t", 2)[0]] {
			want[rowKey(row)] = row
		}
	}
	gotBy := map[string]string{}
	for _, row := range got {
		gotBy[rowKey(row)] = row
	}
	for k, w := range want {
		if g, ok := gotBy[k]; !ok || g != w {
			failed[k] = true
			c.note("%s: loop %q: got %q, want %q", file, k, g, w)
		}
	}
	for k, g := range gotBy {
		if _, ok := want[k]; !ok {
			failed[k] = true
			c.note("%s: unexpected loop %q", file, g)
		}
	}
	attempted = len(want)
	for k := range gotBy {
		if _, ok := want[k]; !ok {
			attempted++
		}
	}
	return attempted, failed
}

// writeFixtures writes the recorded outputs into dir, row files sorted
// for stable diffs.
func (c *checker) writeFixtures(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out := fixtures{}
	for file, content := range c.written {
		out[file] = content
	}
	for file, rows := range c.writtenRows {
		lines := make([]string, 0, len(rows))
		for _, row := range rows {
			lines = append(lines, row)
		}
		sort.Strings(lines)
		out[file] = strings.Join(lines, "\n") + "\n"
	}
	for file, content := range out {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
