// Package metrics computes the paper's evaluation quantities and formats
// result tables.
//
// The paper scores a neighbour set by D — the sum of hop distances between a
// peer and its server-assigned neighbours — and compares it against Dclosest
// (the best possible set, found by brute force) and Drandom (uniformly
// random neighbours). This package provides those three quantities plus
// small table/CSV helpers for the experiment harness.
package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"proxdisc/internal/pathtree"
	"proxdisc/internal/topology"
)

// Attachments maps each peer to the router it is attached to.
type Attachments map[pathtree.PeerID]topology.NodeID

// NeighborScore computes D for one peer: the sum of hop distances from the
// peer's attachment router to each neighbour's attachment router. dist must
// be the hop vector from the peer's attachment (topology.Graph.HopsFrom).
func NeighborScore(dist []int32, att Attachments, neighbors []pathtree.PeerID) (int, error) {
	total := 0
	for _, q := range neighbors {
		router, ok := att[q]
		if !ok {
			return 0, fmt.Errorf("metrics: neighbour %d has no attachment", q)
		}
		d := dist[router]
		if d < 0 {
			return 0, fmt.Errorf("metrics: neighbour %d unreachable", q)
		}
		total += int(d)
	}
	return total, nil
}

// BestK computes Dclosest: the sum of the k smallest hop distances from the
// query peer to any other peer (the brute-force optimal neighbour set).
func BestK(dist []int32, att Attachments, self pathtree.PeerID, k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("metrics: k must be positive, got %d", k)
	}
	ds := make([]int, 0, len(att))
	for q, router := range att {
		if q == self {
			continue
		}
		d := dist[router]
		if d < 0 {
			return 0, fmt.Errorf("metrics: peer %d unreachable", q)
		}
		ds = append(ds, int(d))
	}
	if len(ds) < k {
		k = len(ds)
	}
	sort.Ints(ds)
	total := 0
	for i := 0; i < k; i++ {
		total += ds[i]
	}
	return total, nil
}

// RandomK computes Drandom: the sum of hop distances to k uniformly chosen
// distinct other peers.
func RandomK(dist []int32, att Attachments, self pathtree.PeerID, k int, rng *rand.Rand) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("metrics: k must be positive, got %d", k)
	}
	others := make([]pathtree.PeerID, 0, len(att))
	for q := range att {
		if q != self {
			others = append(others, q)
		}
	}
	// Deterministic base order before shuffling.
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	if len(others) < k {
		k = len(others)
	}
	total := 0
	for i := 0; i < k; i++ {
		d := dist[att[others[i]]]
		if d < 0 {
			return 0, fmt.Errorf("metrics: peer %d unreachable", others[i])
		}
		total += int(d)
	}
	return total, nil
}

// Table is a simple experiment-result table renderable as aligned text or
// CSV. The harness prints one Table per reproduced figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row formatted with %v for each cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned monospace text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(c))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(cell))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
