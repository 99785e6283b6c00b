package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"addrxlat/internal/experiments"
)

// digestsJSON maps digestKey names to the sha256 of the table's TSV
// bytes, for the floor pass and the timed pass at the default seeds.
// Regenerate with `go run . -mode digests > digests.json`.
//
//go:embed digests.json
var digestsJSON []byte

// defaultSeeds are the --seed values whose experiment seeds have
// committed digests.
var defaultSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42}

func loadDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// digestKey names one table: size is "floor" for the setup pass and
// "ad=<AccessDiv>" for a timed pass.
func digestKey(workload, size string, seed uint64) string {
	return fmt.Sprintf("%s/%s/seed=%d", workload, size, seed)
}

// tableResult is one pass's rendered table and its verdict.
type tableResult struct {
	tsv    []byte
	digest string
	cells  int
	failed int
	// problem explains the first table-level failure, "" when clean.
	problem string
}

// checkTable renders t and checks it. With a committed digest the bytes
// must match it; otherwise the invariants must hold: the row count, no
// error footnote, and for the serving table the admitted-request
// identity. A failed cell is a row rendered as "error"; a table-level
// failure fails every cell.
func checkTable(sp spec, t *experiments.Table, want string) tableResult {
	var buf bytes.Buffer
	if err := t.WriteTSV(&buf); err != nil {
		return tableResult{cells: sp.rows, failed: sp.rows, problem: err.Error()}
	}
	sum := sha256.Sum256(buf.Bytes())
	r := tableResult{tsv: buf.Bytes(), digest: hex.EncodeToString(sum[:]), cells: sp.rows}
	for _, row := range t.Rows {
		for _, c := range row {
			if c == "error" || c == "saturated" {
				r.failed++
				break
			}
		}
	}
	switch {
	case want != "" && r.digest != want:
		r.problem = fmt.Sprintf("digest %s, want %s", r.digest, want)
	case want != "":
	case len(t.Rows) != sp.rows:
		r.problem = fmt.Sprintf("%d rows, want %d", len(t.Rows), sp.rows)
	case len(t.Notes) > 0:
		r.problem = "footnote: " + t.Notes[0]
	case t.Name == experiments.ServeGoodputID:
		r.problem = checkServeRows(t)
	}
	if r.problem != "" {
		r.failed = r.cells
	}
	return r
}

// checkServeRows checks admitted = completed + shed + timed_out on every
// row of the goodput table (the event loop's second counter identity).
func checkServeRows(t *experiments.Table) string {
	col := map[string]int{}
	for i, c := range t.Columns {
		col[c] = i
	}
	for _, row := range t.Rows {
		var v [4]uint64
		for i, name := range []string{"admitted", "completed", "shed", "timed_out"} {
			j, ok := col[name]
			if !ok {
				return "serve table has no column " + name
			}
			n, err := strconv.ParseUint(row[j], 10, 64)
			if err != nil {
				return fmt.Sprintf("serve column %s: %v", name, err)
			}
			v[i] = n
		}
		if v[0] != v[1]+v[2]+v[3] {
			return fmt.Sprintf("serve row %s: admitted %d != completed %d + shed %d + timed_out %d",
				strings.Join(row[:2], " "), v[0], v[1], v[2], v[3])
		}
	}
	return ""
}
