package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) pairing.
const (
	VerdictOK         = "ok"
	VerdictImproved   = "improved"
	VerdictRegressed  = "REGRESSED"
	VerdictUnresolved = "unresolved"
)

// Pairing is the comparison of one end-to-end metric on one workload
// between two result files.
type Pairing struct {
	Workload, Metric, Unit string
	Base, New              float64 // medians
	Ratio                  float64 // New ÷ Base
	Bound                  float64
	BaseSpread, NewSpread  float64
	BaseRuns, NewRuns      int
	Verdict                string
}

// group collects the untraced runs of a file by workload.
func group(f *File) map[string][]Run {
	by := make(map[string][]Run)
	for _, r := range f.Runs {
		if !r.Traced {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by
}

func values(runs []Run, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// worseBy is by what share of base the new median is worse (negative when
// it is better).
func worseBy(m Metric, base, next float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// allBetter reports whether every new value beats every base value.
func allBetter(m Metric, base, next []float64) bool {
	b, n := sorted(base), sorted(next)
	if len(b) == 0 || len(n) == 0 {
		return false
	}
	if m.Better == "higher" {
		return n[0] > b[len(b)-1]
	}
	return n[len(n)-1] < b[0]
}

// Compare applies each end-to-end metric's bound per (metric, workload).
// A pairing regresses when the new median is worse than the base median by
// more than the bound; it is unresolved, not unchanged, when either side's
// own run-to-run spread exceeds the bound — unless every new run beats every
// base run. failedUp lists the workloads on which more operations failed
// than before.
func Compare(spec *Spec, base, next *File) (pairs []Pairing, failedUp []string) {
	bg, ng := group(base), group(next)
	for _, w := range spec.Workloads {
		b, n := bg[w.Name], ng[w.Name]
		if len(b) == 0 || len(n) == 0 {
			continue
		}
		bf, nf := 0, 0
		for _, r := range b {
			bf += r.Failed + len(r.Violations)
		}
		for _, r := range n {
			nf += r.Failed + len(r.Violations)
		}
		if nf*len(b) > bf*len(n) { // failures per run went up
			failedUp = append(failedUp, w.Name)
		}
		for _, m := range spec.EndToEnd {
			bv, nv := values(b, m.Name), values(n, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			p := Pairing{
				Workload: w.Name, Metric: m.Name, Unit: m.Unit,
				Base: Median(bv), New: Median(nv), Bound: m.Bound,
				BaseSpread: Spread(bv), NewSpread: Spread(nv),
				BaseRuns: len(bv), NewRuns: len(nv),
			}
			if p.Base != 0 {
				p.Ratio = p.New / p.Base
			}
			worse := worseBy(m, p.Base, p.New)
			noisy := p.BaseSpread > m.Bound || p.NewSpread > m.Bound
			switch {
			case noisy && !allBetter(m, bv, nv):
				p.Verdict = VerdictUnresolved
			case worse > m.Bound:
				p.Verdict = VerdictRegressed
			case worse < -m.Bound:
				p.Verdict = VerdictImproved
			default:
				p.Verdict = VerdictOK
			}
			pairs = append(pairs, p)
		}
	}
	return pairs, failedUp
}

// WriteComparison prints one row per pairing, each ratio with its base.
func WriteComparison(w io.Writer, pairs []Pairing, failedUp []string) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase (n, spread)\tnew (n, spread)\tnew/base\tbound\tverdict")
	for _, p := range pairs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d, %.1f%%)\t%.6g (%d, %.1f%%)\t%.4f\t%.1f%%\t%s\n",
			p.Workload, p.Metric, p.Unit,
			p.Base, p.BaseRuns, 100*p.BaseSpread,
			p.New, p.NewRuns, 100*p.NewSpread,
			p.Ratio, 100*p.Bound, p.Verdict)
	}
	for _, name := range failedUp {
		fmt.Fprintf(tw, "%s\tfailed operations\t\t\t\t\t\tREGRESSED (more failures than base)\n", name)
	}
	return tw.Flush()
}

// Regressed reports whether a comparison must fail the gate.
func Regressed(pairs []Pairing, failedUp []string) bool {
	if len(failedUp) > 0 {
		return true
	}
	for _, p := range pairs {
		if p.Verdict == VerdictRegressed {
			return true
		}
	}
	return false
}
