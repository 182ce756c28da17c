package sim

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV exports a run's time series as one CSV table with the columns
// timestamp, per_lc_server_load, lc_throughput, batch_throughput, power —
// the raw material of Fig. 12-style plots.
func (r *Result) WriteCSV(w io.Writer) error {
	if r == nil || r.PerLCServerLoad.Empty() {
		return fmt.Errorf("%w: empty result", ErrModel)
	}
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"timestamp", "per_lc_server_load", "lc_throughput", "batch_throughput", "power"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := 0; i < r.PerLCServerLoad.Len(); i++ {
		rec := []string{
			r.PerLCServerLoad.TimeAt(i).UTC().Format("2006-01-02T15:04:05Z"),
			f(r.PerLCServerLoad.Values[i]),
			f(r.LCThroughput.Values[i]),
			f(r.BatchThroughput.Values[i]),
			f(r.Power.Values[i]),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}
