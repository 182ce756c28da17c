package tracestore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// fillGapFreeRing writes a reading into every slot of [origin, origin +
// slots·step), one in twenty of them an impulse.
func fillGapFreeRing(t *testing.T, rng *rand.Rand, st *Store, id string, origin time.Time, slots int) {
	t.Helper()
	step := st.cfg.step()
	for i := 0; i < slots; i++ {
		w := 50 + 100*rng.Float64()
		if rng.Intn(20) == 0 {
			w *= 5
		}
		must(t, st.Append(id, origin.Add(time.Duration(i)*step), w))
	}
}

// checkBatchReads requires the batch reads of ids to agree bit for bit with
// the single-id reads and the per-slot oracle, index by index: the same
// trace and Quality, no-data for an unknown instance, and on failure the
// lowest failing index with the single read's error text. Indices below it
// must have been read; indices above it may be skipped.
func checkBatchReads(t *testing.T, label string, st *Store, ids []string, from, to time.Time, weeks, workers int) {
	t.Helper()
	type single func(id string) (timeseries.Series, Quality, error)
	type batch func(visit func(int, timeseries.Series, Quality)) (int, error)
	reads := []struct {
		name           string
		single, oracle single
		batch          batch
	}{
		{
			name:   "snapshot",
			single: func(id string) (timeseries.Series, Quality, error) { return st.SnapshotQuality(id, from, to) },
			oracle: func(id string) (timeseries.Series, Quality, error) { return snapshotQualityOracle(st, id, from, to) },
			batch: func(visit func(int, timeseries.Series, Quality)) (int, error) {
				return st.SnapshotQualityBatch(ids, from, to, workers, visit)
			},
		},
		{
			name:   fmt.Sprintf("averaged %d weeks", weeks),
			single: func(id string) (timeseries.Series, Quality, error) { return st.AveragedITraceQuality(id, to, weeks) },
			oracle: func(id string) (timeseries.Series, Quality, error) {
				return averagedITraceQualityOracle(st, id, to, weeks)
			},
			batch: func(visit func(int, timeseries.Series, Quality)) (int, error) {
				return st.AveragedITraceQualityBatch(ids, to, weeks, workers, visit)
			},
		},
	}
	for _, rd := range reads {
		label := fmt.Sprintf("%s %s workers %d", label, rd.name, workers)
		trs := make([]timeseries.Series, len(ids))
		qs := make([]Quality, len(ids))
		seen := make([]bool, len(ids))
		failed, err := rd.batch(func(i int, tr timeseries.Series, q Quality) {
			if seen[i] {
				t.Errorf("%s: index %d visited twice", label, i)
			}
			trs[i], qs[i], seen[i] = tr, q, true
		})
		for i, id := range ids {
			tr, q, serr := rd.single(id)
			wtr, wq, werr := rd.oracle(id)
			sameRead(t, fmt.Sprintf("%s %q single", label, id), tr, wtr, q, wq, serr, werr)
			if errors.Is(serr, ErrUnknownInstance) {
				tr, q, serr = timeseries.Series{}, Quality{Grade: GradeNoData}, nil
			}
			if serr != nil {
				if err == nil || failed != i || err.Error() != serr.Error() {
					t.Fatalf("%s: batch failed at %d with %v, want %d with %v", label, failed, err, i, serr)
				}
				return
			}
			if !seen[i] {
				t.Fatalf("%s: index %d not visited (batch error at %d: %v)", label, i, failed, err)
			}
			sameRead(t, fmt.Sprintf("%s %q batch", label, id), trs[i], tr, qs[i], q, nil, nil)
		}
		if err != nil {
			t.Fatalf("%s: batch failed at %d with %v, every single read succeeded", label, failed, err)
		}
	}
}

// TestBatchReadsMatchSingleReads drives batches of gappy, young, shifted and
// gap-free rings and an unknown id through windows before, across and inside
// the rings, with the impulse filter on and off, at several worker counts.
func TestBatchReadsMatchSingleReads(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 8; trial++ {
		cfg := Config{
			Step:           []time.Duration{time.Minute, 30 * time.Minute, time.Hour}[rng.Intn(3)],
			RejectImpulses: trial%2 == 0,
		}
		cfg.Retention = time.Duration(8+rng.Intn(400)) * cfg.Step
		if trial%4 == 1 {
			cfg.Step, cfg.Retention = 30*time.Minute, 3*7*24*time.Hour
		}
		st := New(cfg)
		slots := int(cfg.Retention / cfg.Step)
		var ids []string
		for k := 0; k < 9; k++ {
			id := fmt.Sprintf("r%d", k)
			ids = append(ids, id)
			switch k % 3 {
			case 0:
				fillGapFreeRing(t, rng, st, id, qEpoch, slots)
			case 1:
				fillRandomRing(t, rng, st, id, qEpoch, 1+rng.Intn(3*slots))
			case 2:
				fillRandomRing(t, rng, st, id, qEpoch, 1+rng.Intn(5))
			}
		}
		ids = append(ids, "ghost")
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for w := 0; w < 9; w++ {
			n := 1 + rng.Intn(slots+10)
			from := qEpoch.Add(time.Duration(rng.Intn(slots+1)-n/2) * cfg.Step)
			if w%3 == 0 { // inside the gap-free rings
				n = 1 + rng.Intn(slots)
				from = qEpoch.Add(time.Duration(rng.Intn(slots-n+1)) * cfg.Step)
			}
			to := from.Add(time.Duration(n) * cfg.Step)
			label := fmt.Sprintf("trial %d window %d [%v, %v)", trial, w, from, to)
			for _, workers := range []int{1, 3, 8} {
				checkBatchReads(t, label, st, ids, from, to, 1+rng.Intn(3), workers)
			}
		}
	}
}

// TestBatchReadAllocs pins the batch reads to a constant number of
// allocations, whatever the batch size: one slab, not a slice per id.
func TestBatchReadAllocs(t *testing.T) {
	st := New(Config{Step: 30 * time.Minute, RejectImpulses: true})
	rng := rand.New(rand.NewSource(1))
	ids := make([]string, 1000)
	for i := range ids {
		ids[i] = fmt.Sprintf("i%04d", i)
		fillGapFreeRing(t, rng, st, ids[i], t0, 3*336)
	}
	end := t0.Add(3 * 7 * 24 * time.Hour)
	visit := func(int, timeseries.Series, Quality) {}
	for _, workers := range []int{1, 4} {
		allocs := func(ids []string) [2]float64 {
			return [2]float64{
				testing.AllocsPerRun(5, func() {
					if _, err := st.SnapshotQualityBatch(ids, end.Add(-7*24*time.Hour), end, workers, visit); err != nil {
						t.Fatal(err)
					}
				}),
				testing.AllocsPerRun(5, func() {
					if _, err := st.AveragedITraceQualityBatch(ids, end, 2, workers, visit); err != nil {
						t.Fatal(err)
					}
				}),
			}
		}
		few, all := allocs(ids[:10]), allocs(ids)
		if all != few || all[0] > 64 || all[1] > 64 {
			t.Fatalf("workers %d: snapshot and averaged batches allocate %v times for 10 ids, %v for 1,000", workers, few, all)
		}
	}
}
