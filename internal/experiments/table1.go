package experiments

import (
	"fmt"
	"strings"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/par"
)

// Table1Config parameterizes the dataset-statistics table.
type Table1Config struct {
	// Scale selects CI or paper-size federations.
	Scale Scale
	// Seed drives all three generators.
	Seed uint64
}

// Table1Row is one dataset's statistics, matching the paper's Table I
// columns (dataset, nodes, mean and stdev of samples per node).
type Table1Row struct {
	Dataset string
	Nodes   int
	Mean    float64
	Std     float64
}

// Table1Result is the reproduced Table I.
type Table1Result struct {
	Rows []Table1Row
	// PaperRows carries the published values for side-by-side comparison.
	PaperRows []Table1Row
}

// RunTable1 generates all three workloads and tabulates their per-node
// sample statistics.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	if cfg.Scale == 0 {
		cfg.Scale = ScaleCI
	}
	// Each generator owns its seed; run the three on the worker pool into
	// index slots.
	names := []string{"synthetic", "mnist", "sent140"}
	feds := make([]*data.Federation, len(names))
	err := par.ForEachErr(0, len(names), func(c int) error {
		var err error
		if feds[c], err = datasets[names[c]](cfg.Scale, 0.5, 5, cfg.Seed+uint64(c)+1); err != nil {
			return fmt.Errorf("table1 %s: %w", names[c], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Table1Result{
		PaperRows: []Table1Row{
			{Dataset: "Synthetic", Nodes: 50, Mean: 17, Std: 5},
			{Dataset: "MNIST", Nodes: 100, Mean: 34, Std: 5},
			{Dataset: "Sent140", Nodes: 706, Mean: 42, Std: 35},
		},
	}
	for _, fed := range feds {
		s := fed.NodeStats()
		res.Rows = append(res.Rows, Table1Row{
			Dataset: fed.Name,
			Nodes:   s.Nodes,
			Mean:    s.MeanPerNode,
			Std:     s.StdPerNode,
		})
	}
	return res, nil
}

// Render prints the measured table next to the published one.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table I: Statistics of Datasets (measured | paper)\n")
	fmt.Fprintf(&b, "%-22s %8s %12s %12s   | %8s %8s %8s\n",
		"Dataset", "Nodes", "Mean/Node", "Std/Node", "Nodes", "Mean", "Std")
	for i, row := range r.Rows {
		p := Table1Row{}
		if i < len(r.PaperRows) {
			p = r.PaperRows[i]
		}
		fmt.Fprintf(&b, "%-22s %8d %12.1f %12.1f   | %8d %8.0f %8.0f\n",
			row.Dataset, row.Nodes, row.Mean, row.Std, p.Nodes, p.Mean, p.Std)
	}
	return b.String()
}
