package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenTables are the rendering cases pinned by files under testdata/.
// Regenerate with: go test ./internal/harness -run TestTableFormatGolden -update-golden=tables
var goldenTables = []struct {
	file  string
	table Table
}{
	{
		file: "table_basic.golden",
		table: Table{
			Title: "Fig. 10: normalized execution time",
			Cols:  []string{"native", "pipm", "local-only"},
			Rows:  []string{"bfs", "pagerank"},
			Cells: [][]float64{{1, 0.62, 0.4}, {1, 0.715, 0.52}},
		},
	},
	{
		file: "table_mean_note.golden",
		table: Table{
			Title:     "Table 3: speedup over native",
			Note:      "geomean across 6 workloads; higher is better",
			Cols:      []string{"pipm"},
			Rows:      []string{"bfs", "sssp", "kmeans"},
			Cells:     [][]float64{{1.51}, {1.275}, {1.02}},
			MeanLabel: "mean",
		},
	},
	{
		file: "table_custom_fmt.golden",
		table: Table{
			Title: "remap cache hit rate",
			Cols:  []string{"64e", "1024e"},
			Rows:  []string{"contested"},
			Cells: [][]float64{{0.4321, 0.9876}},
			Fmt:   "%.1f%%",
		},
	},
	{
		file: "table_empty_rows.golden",
		table: Table{
			Title:     "degenerate: no rows",
			Cols:      []string{"a", "b"},
			MeanLabel: "mean",
		},
	},
}

func TestTableFormatGolden(t *testing.T) {
	for _, tc := range goldenTables {
		t.Run(tc.file, func(t *testing.T) {
			got := tc.table.Format()
			path := filepath.Join("testdata", tc.file)
			if updating(t, "tables") {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden=tables to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("rendering changed; rerun with -update-golden=tables if intended.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
