package experiment

import (
	"fmt"
	"io"
	"strings"

	"tagprefetch/internal/stats"
)

// Output is what one catalog sweep produces: curves or a table.
type Output struct {
	Series []stats.Series
	Table  *stats.Table
}

// Write prints the output the way tcpsweep does: one series per line, or
// the aligned table — as CSV instead when csv is set.
func (out Output) Write(w io.Writer, csv bool) error {
	for _, s := range out.Series {
		if _, err := fmt.Fprintln(w, s.String()); err != nil {
			return err
		}
	}
	switch {
	case out.Table == nil:
		return nil
	case csv:
		return out.Table.WriteCSV(w)
	default:
		_, err := out.Table.WriteTo(w)
		return err
	}
}

// Sweep is one named grid of the design-space catalog.
type Sweep struct {
	Name string
	Run  func(Options) Output
}

func series(f func(Options) stats.Series) func(Options) Output {
	return func(o Options) Output { return Output{Series: []stats.Series{f(o)}} }
}

func table(f func(Options) *stats.Table) func(Options) Output {
	return func(o Options) Output { return Output{Table: f(o)} }
}

// Sweeps is the design-space catalog: the Figure 13 PHT-size and
// index-bits sweeps, then the ablations A1-A9 in the order tcpfigs prints
// them. tcpsweep's -sweep, tcpsweepd's "sweep" field and tcpfigs' fig13a,
// fig13b and ablations all resolve names here.
var Sweeps = []Sweep{
	{"size", func(o Options) Output { return Output{Series: Fig13PHTSize(o)} }},
	{"nbits", series(Fig13IndexBits)},
	{"k", series(AblationTHTDepth)},
	{"assoc", series(AblationPHTAssoc)},
	{"hash", series(AblationHashing)},
	{"targets", series(AblationMultiTarget)},
	{"baselines", table(AblationClassicBaselines)},
	{"critfilter", table(AblationCriticalFilter)},
	{"strideassist", table(AblationStrideAssist)},
	{"placement", table(AblationPlacement)},
	{"branchpred", series(AblationBranchPredictors)},
}

// Ablations are the catalog's ablation sweeps, k through branchpred: the
// body of tcpfigs -exp ablations.
var Ablations = Sweeps[2:]

// SweepNamed returns the catalog entry called name.
func SweepNamed(name string) (Sweep, bool) {
	for _, s := range Sweeps {
		if s.Name == name {
			return s, true
		}
	}
	return Sweep{}, false
}

// SweepNames lists the catalog's names in order, separated by " | ".
func SweepNames() string {
	names := make([]string, len(Sweeps))
	for i, s := range Sweeps {
		names[i] = s.Name
	}
	return strings.Join(names, " | ")
}
