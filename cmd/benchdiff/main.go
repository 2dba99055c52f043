// Command benchdiff judges a change's benchmark runs against its base
// commit's. It reads two files of raw `go test -bench -benchmem` output,
// BASE and HEAD, each holding one side's runs of the same rows in run order,
// as scripts/benchpair.sh writes them. The k-th line of a row in BASE pairs
// with the k-th line of that row in HEAD, over the first n = min(counts)
// lines.
//
// Usage:
//
//	benchdiff BASE HEAD
//
// For each row present in both files it prints the base median and
// quartiles and the head median of ns/op, the number of pairs the head wins
// (ties count for neither side), the median allocs/op of each side, and one
// verdict:
//
//   - slower: the head loses at least ⌈0.9·n⌉ pairs, and its median exceeds
//     the base median by more than the base's interquartile range Q3−Q1;
//   - allocs+: the head allocates more than the base in at least ⌈0.9·n⌉
//     pairs;
//   - faster: the head wins at least ⌈0.9·n⌉ pairs, and its median is below
//     the base median by more than the base's Q3−Q1;
//   - within noise: every other row.
//
// Rows present on only one side are listed and never fail. The exit code is
// 1 when any row is slower or allocs+, and 2 when a file is unreadable or
// holds no benchmark line.
//
// Quantiles interpolate linearly between order statistics: the q-quantile of
// n sorted values sits at rank q·(n−1), counted from 0 (Hyndman and Fan's
// type 7, the default of R and NumPy). The median is the 0.5-quantile.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Verdicts, one per row.
const (
	faster      = "faster"
	slower      = "slower"
	allocsUp    = "allocs+"
	withinNoise = "within noise"
)

// result is one benchmark line: one run of one row.
type result struct {
	ns float64
	// allocs is the allocs/op column, or -1 when the run did not report it.
	allocs float64
}

// runs holds one file's results per row, and the rows in first-seen order.
type runs struct {
	names []string
	byRow map[string][]result
}

// parse reads the benchmark lines of a `go test -bench` output file: a row
// name starting with "Benchmark", its iteration count, then value/unit
// pairs, ns/op among them. Every other line is skipped.
func parse(path string) (runs, error) {
	rs := runs{byRow: map[string][]result{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		r := result{ns: -1, allocs: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				r.ns = v
			case "allocs/op":
				r.allocs = v
			}
		}
		if r.ns < 0 {
			continue
		}
		name := fields[0]
		if _, seen := rs.byRow[name]; !seen {
			rs.names = append(rs.names, name)
		}
		rs.byRow[name] = append(rs.byRow[name], r)
	}
	if err := sc.Err(); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.names) == 0 {
		return rs, fmt.Errorf("%s: no benchmark line", path)
	}
	return rs, nil
}

// quantile returns the q-quantile of the sorted values by linear
// interpolation at rank q·(n−1) (type 7).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// judgement is the comparison of one row's paired runs.
type judgement struct {
	n                        int
	baseMed, baseQ1, baseQ3  float64
	headMed                  float64
	wins, losses, moreAllocs int
	baseAllocs, headAllocs   float64 // medians; -1 when not reported
	verdict                  string
}

// judge pairs the first n = min(len(base), len(head)) runs of a row and
// applies the paired rule of the package comment.
func judge(base, head []result) judgement {
	n := min(len(base), len(head))
	j := judgement{n: n, baseAllocs: -1, headAllocs: -1}
	var bns, hns, ball, hall []float64
	for k := range n {
		b, h := base[k], head[k]
		switch {
		case h.ns < b.ns:
			j.wins++
		case h.ns > b.ns:
			j.losses++
		}
		bns, hns = append(bns, b.ns), append(hns, h.ns)
		if b.allocs >= 0 && h.allocs >= 0 {
			ball, hall = append(ball, b.allocs), append(hall, h.allocs)
			if h.allocs > b.allocs {
				j.moreAllocs++
			}
		}
	}
	slices.Sort(bns)
	slices.Sort(hns)
	j.baseMed, j.baseQ1, j.baseQ3 = quantile(bns, 0.5), quantile(bns, 0.25), quantile(bns, 0.75)
	j.headMed = quantile(hns, 0.5)
	if len(ball) > 0 {
		slices.Sort(ball)
		slices.Sort(hall)
		j.baseAllocs, j.headAllocs = quantile(ball, 0.5), quantile(hall, 0.5)
	}
	need := (9*n + 9) / 10 // ⌈0.9·n⌉
	iqr := j.baseQ3 - j.baseQ1
	switch {
	case j.losses >= need && j.headMed-j.baseMed > iqr:
		j.verdict = slower
	case j.moreAllocs >= need:
		j.verdict = allocsUp
	case j.wins >= need && j.baseMed-j.headMed > iqr:
		j.verdict = faster
	default:
		j.verdict = withinNoise
	}
	return j
}

func fmtAllocs(v float64) string {
	if v < 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// diff compares the two files and returns the exit code.
func diff(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := parse(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	head, err := parse(headPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	counts := map[string]int{}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "row\tn\tbase median ns/op\tbase Q1\tbase Q3\thead median ns/op\thead wins\tallocs/op base\thead\tverdict")
	for _, name := range base.names {
		h, ok := head.byRow[name]
		if !ok {
			continue
		}
		j := judge(base.byRow[name], h)
		counts[j.verdict]++
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%d/%d\t%s\t%s\t%s\n",
			name, j.n, j.baseMed, j.baseQ1, j.baseQ3, j.headMed, j.wins, j.n,
			fmtAllocs(j.baseAllocs), fmtAllocs(j.headAllocs), j.verdict)
	}
	tw.Flush()
	for _, name := range base.names {
		if _, ok := head.byRow[name]; !ok {
			fmt.Fprintf(stdout, "only in base: %s\n", name)
		}
	}
	for _, name := range head.names {
		if _, ok := base.byRow[name]; !ok {
			fmt.Fprintf(stdout, "only in head: %s\n", name)
		}
	}
	fmt.Fprintf(stdout, "benchdiff: %d faster, %d slower, %d allocs+, %d within noise\n",
		counts[faster], counts[slower], counts[allocsUp], counts[withinNoise])
	if counts[slower]+counts[allocsUp] > 0 {
		return 1
	}
	return 0
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff BASE HEAD (two files of `go test -bench -benchmem` output)")
		os.Exit(2)
	}
	os.Exit(diff(os.Args[1], os.Args[2], os.Stdout, os.Stderr))
}
