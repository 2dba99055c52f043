package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// side is one file's runs of one row: ns/op per run, and allocs/op per run
// (nil prints 2 allocs/op on every run).
type side struct {
	ns, allocs []float64
}

// benchFile writes `go test -bench -benchmem` output holding the runs of
// each row in run order, and returns its path.
func benchFile(t *testing.T, name string, rows map[string]side) string {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("goos: linux\ngoarch: amd64\npkg: viptree\n")
	for k := 0; ; k++ {
		wrote := false
		for row, s := range rows {
			if k >= len(s.ns) {
				continue
			}
			allocs := 2.0
			if s.allocs != nil {
				allocs = s.allocs[k]
			}
			fmt.Fprintf(&buf, "%s-2\t     100\t%12.1f ns/op\t 5000000 qps\t      64 B/op\t%8.0f allocs/op\n", row, s.ns[k], allocs)
			wrote = true
		}
		if !wrote {
			break
		}
	}
	buf.WriteString("PASS\nok  \tviptree\t1.234s\n")
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compare runs benchdiff on the two sides and returns its exit code and
// stdout.
func compare(t *testing.T, base, head map[string]side) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := diff(benchFile(t, "base.txt", base), benchFile(t, "head.txt", head), &out, &errOut)
	return code, out.String() + errOut.String()
}

// verdictOf returns the verdict printed on the row's line.
func verdictOf(t *testing.T, out, row string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, row+"-2 ") {
			for _, v := range []string{faster, slower, allocsUp, withinNoise} {
				if strings.HasSuffix(line, v) {
					return v
				}
			}
		}
	}
	t.Fatalf("no verdict for %s in:\n%s", row, out)
	return ""
}

// seq returns n values from start in steps of one.
func seq(start float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)
	}
	return out
}

// The base of the paired-rule cases: ten runs of 100..109 ns/op, whose
// quartiles are 102.25 and 106.75 (type 7), an interquartile range of 4.5.
var base10 = seq(100, 10)

func TestPairedRule(t *testing.T) {
	cases := []struct {
		name     string
		head     side
		verdict  string
		exitCode int
	}{
		{
			// Nine wins, one loss; the head median 94.5 sits 10 below 104.5.
			name:     "nine wins beyond the IQR are faster",
			head:     side{ns: append(seq(90, 9), 200)},
			verdict:  faster,
			exitCode: 0,
		},
		{
			// Nine losses, one win; the head median 113.5 sits 9 above.
			name:     "nine losses beyond the IQR are slower",
			head:     side{ns: append(seq(110, 9), 50)},
			verdict:  slower,
			exitCode: 1,
		},
		{
			// Nine losses by 1 ns, one win by 1 ns: the medians differ by
			// 0.8, inside the 4.5 IQR.
			name:     "nine losses inside the IQR are within noise",
			head:     side{ns: append(seq(101, 9), 108)},
			verdict:  withinNoise,
			exitCode: 0,
		},
		{
			// Two ties and eight large losses: a tie counted as a loss
			// would make ten and a slower verdict.
			name:     "ties count for neither side",
			head:     side{ns: append([]float64{100, 101}, seq(300, 8)...)},
			verdict:  withinNoise,
			exitCode: 0,
		},
		{
			name:     "ties do not count as wins",
			head:     side{ns: append([]float64{100, 101}, seq(10, 8)...)},
			verdict:  withinNoise,
			exitCode: 0,
		},
		{
			name: "more allocations in nine pairs fail",
			head: side{ns: base10, allocs: []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 2}},
			// Equal ns/op everywhere: only the allocations differ.
			verdict:  allocsUp,
			exitCode: 1,
		},
		{
			name:     "more allocations in eight pairs pass",
			head:     side{ns: base10, allocs: []float64{3, 3, 3, 3, 3, 3, 3, 3, 2, 2}},
			verdict:  withinNoise,
			exitCode: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := compare(t,
				map[string]side{"BenchmarkRow": {ns: base10}},
				map[string]side{"BenchmarkRow": tc.head})
			if got := verdictOf(t, out, "BenchmarkRow"); got != tc.verdict {
				t.Errorf("verdict %q, want %q:\n%s", got, tc.verdict, out)
			}
			if code != tc.exitCode {
				t.Errorf("exit %d, want %d:\n%s", code, tc.exitCode, out)
			}
		})
	}
}

func TestQuartilesAreType7(t *testing.T) {
	j := judge(resultsOf(base10), resultsOf(base10))
	if j.baseMed != 104.5 || j.baseQ1 != 102.25 || j.baseQ3 != 106.75 {
		t.Errorf("median, Q1, Q3 = %v, %v, %v; want 104.5, 102.25, 106.75", j.baseMed, j.baseQ1, j.baseQ3)
	}
	if j.wins != 0 || j.verdict != withinNoise {
		t.Errorf("identical sides: %d wins, verdict %q", j.wins, j.verdict)
	}
}

func resultsOf(ns []float64) []result {
	out := make([]result, len(ns))
	for i, v := range ns {
		out[i] = result{ns: v, allocs: 0}
	}
	return out
}

func TestNewAndRemovedBenchmarksNeverFail(t *testing.T) {
	code, out := compare(t,
		map[string]side{"BenchmarkShared": {ns: base10}, "BenchmarkOld": {ns: base10}},
		map[string]side{"BenchmarkShared": {ns: base10}, "BenchmarkNew": {ns: seq(9000, 10), allocs: seq(50, 10)}})
	if code != 0 {
		t.Fatalf("rows on one side failed the run with exit %d:\n%s", code, out)
	}
	for _, want := range []string{"only in base: BenchmarkOld-2", "only in head: BenchmarkNew-2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestUnequalRunCountsPairTheFirstRuns(t *testing.T) {
	// The head's first ten runs all lose by 50 ns; its two extra runs would
	// win. Pairing the first ten gives slower; pairing any other ten would
	// count two wins and stay within noise.
	code, out := compare(t,
		map[string]side{"BenchmarkRow": {ns: base10}},
		map[string]side{"BenchmarkRow": {ns: append(seq(150, 10), 1, 1)}})
	if got := verdictOf(t, out, "BenchmarkRow"); got != slower || code != 1 {
		t.Errorf("verdict %q exit %d, want slower exit 1:\n%s", got, code, out)
	}
	if !strings.Contains(out, "0/10") {
		t.Errorf("want 0 wins over n = 10 pairs:\n%s", out)
	}
}

// TestUnusableCurrentIsAnError: a head (current) or base file that is
// missing or holds no benchmark line exits 2 and names the file, because
// passing silently would hide a broken benchmark step.
func TestUnusableCurrentIsAnError(t *testing.T) {
	dir := t.TempDir()
	good := benchFile(t, "good.txt", map[string]side{"BenchmarkRow": {ns: base10}})
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("goos: linux\nPASS\nok  \tviptree\t0.1s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.txt")
	for _, tc := range []struct{ name, base, head string }{
		{"base without benchmark lines", empty, good},
		{"head without benchmark lines", good, empty},
		{"missing base", missing, good},
		{"missing head", good, missing},
	} {
		var out, errOut bytes.Buffer
		if code := diff(tc.base, tc.head, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2:\n%s%s", tc.name, code, out.String(), errOut.String())
		}
		bad := tc.base
		if bad == good {
			bad = tc.head
		}
		if !strings.Contains(errOut.String(), bad) {
			t.Errorf("%s: error does not name %s: %q", tc.name, bad, errOut.String())
		}
	}
}

func TestParseKeepsSuffixAndSkipsExtraColumns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raw.txt")
	raw := "BenchmarkBatchedDistance/VIP/clustered/batch-2   \t     100\t    186041 ns/op\t   5504129 qps\t    1520 B/op\t       3 allocs/op\n" +
		"BenchmarkTable1Stats/MC-2 \t 1\t 612527 ns/op\t 3.143 AvgAccessDoors\t 94.00 Doors\t 66896 B/op\t 638 allocs/op\n" +
		"BenchmarkSnapshotLoad-2   \t     100\t   1900000 ns/op\t  88.10 MB/s\t  917504 B/op\t    5012 allocs/op\n" +
		"BenchmarkDistance/VIP-Tree/same-leaf\n" +
		"--- SKIP: BenchmarkDistance/ROAD/same-leaf\n"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{
		"BenchmarkBatchedDistance/VIP/clustered/batch-2": {ns: 186041, allocs: 3},
		"BenchmarkTable1Stats/MC-2":                      {ns: 612527, allocs: 638},
		"BenchmarkSnapshotLoad-2":                        {ns: 1900000, allocs: 5012},
	}
	if len(rs.names) != len(want) {
		t.Fatalf("parsed rows %v, want %d rows", rs.names, len(want))
	}
	for name, w := range want {
		if got := rs.byRow[name]; len(got) != 1 || got[0] != w {
			t.Errorf("%s: parsed %v, want %v", name, got, w)
		}
	}
}
