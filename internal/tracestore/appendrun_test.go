package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"
)

// refStore is the write path as it was before slot numbers, kept as the
// reference FuzzAppendRunMatchesAppend holds the store to: every reading
// is placed on its own with time.Time Truncate, Sub, Add and After. It
// differs in one line: a new ring's latest is its first reading, where the
// zero Time left a ring begun before year 1 with a latest past its readings.
type refStore struct {
	cfg   Config
	rings map[string]*timeRing
}

func (s *refStore) append(id string, at time.Time, watts float64) error {
	if math.IsNaN(watts) || math.IsInf(watts, 0) || watts < 0 {
		return fmt.Errorf("%w: %v", ErrBadReading, watts)
	}
	step := s.cfg.step()
	slots := int(s.cfg.retention() / step)
	at = at.Truncate(step)
	r := s.rings[id]
	if r == nil {
		r = &timeRing{start: at, latest: at, values: nanSlice(slots)}
		s.rings[id] = r
	}
	idx := int(at.Sub(r.start) / step)
	switch {
	case idx < 0:
		back := -idx
		if back >= slots || !at.After(r.latest.Add(-time.Duration(slots)*step)) {
			return ErrStale
		}
		copy(r.values[back:], r.values[:slots-back])
		fillNaN(r.values[:back])
		r.start = r.start.Add(-time.Duration(back) * step)
		idx = 0
	case idx >= slots:
		n := min(idx-slots+1, slots)
		copy(r.values, r.values[n:])
		fillNaN(r.values[slots-n:])
		r.start = r.start.Add(time.Duration(idx-slots+1) * step)
		idx = slots - 1
	}
	r.values[idx] = watts
	if at.After(r.latest) {
		r.latest = at
	}
	return nil
}

// appendRun feeds the run one reading at a time and, at the first failure,
// restores the instance's ring and returns the failing reading's index.
func (s *refStore) appendRun(id string, start time.Time, values []float64) (int, error) {
	prev := s.rings[id]
	if prev != nil {
		r := *prev
		r.values = slices.Clone(prev.values)
		s.rings[id] = &r
	}
	for i, w := range values {
		if err := s.append(id, start.Add(time.Duration(i)*s.cfg.step()), w); err != nil {
			if prev == nil {
				delete(s.rings, id)
			} else {
				s.rings[id] = prev
			}
			return i, err
		}
	}
	return 0, nil
}

func (s *refStore) coverage(id string) (float64, error) {
	r := s.rings[id]
	if r == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownInstance, id)
	}
	span := int(r.latest.Sub(r.start)/s.cfg.step()) + 1
	if span <= 0 {
		return 0, nil
	}
	count := 0
	for _, v := range r.values {
		if !math.IsNaN(v) {
			count++
		}
	}
	return float64(count) / float64(span), nil
}

func (s *refStore) save(w io.Writer) error {
	cp := checkpoint{
		StepSeconds:      s.cfg.step().Seconds(),
		RetentionSeconds: s.cfg.retention().Seconds(),
		RejectImpulses:   s.cfg.RejectImpulses,
		Instances:        make(map[string]instanceDump, len(s.rings)),
	}
	for id, r := range s.rings {
		vals := slices.Clone(r.values)
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = -1
			}
		}
		cp.Instances[id] = instanceDump{
			Start:  r.start.UTC().Format(time.RFC3339Nano),
			Latest: r.latest.UTC().Format(time.RFC3339Nano),
			Values: vals,
		}
	}
	return json.NewEncoder(w).Encode(cp)
}

// saturates reports whether the reference places a reading at at on r with
// a saturated Sub: more than ≈ 292 years after the ring's origin, where the
// reference writes it into the ring's last slot and the store, counting
// slots exactly, empties the ring and keeps it as its newest reading.
func saturates(r *timeRing, at time.Time, step time.Duration) bool {
	return r != nil && at.Truncate(step).Sub(r.start) == math.MaxInt64
}

var (
	year9999  = time.Date(9999, 6, 1, 0, 0, 0, 0, time.UTC)
	runEpochs = []time.Time{time.Time{}, t0, year9999}
	runSteps  = []time.Duration{750 * time.Millisecond, 1500 * time.Millisecond, time.Second, 7 * time.Minute, 30 * time.Minute, 24 * time.Hour}
)

// FuzzAppendRunMatchesAppend drives the store and refStore through the same
// interleaving of single readings and runs over three instances — late,
// overwriting, shifting the origin back, jumping past the ring, runs longer
// than the ring, invalid values, times near year 1 and year 9999 — at
// sub-second, fractional, odd and whole steps. After every operation the
// two must agree on the error (kind, reading and text), Coverage, Save
// bytes and SnapshotQuality. A reading more than ≈ 292 years after a
// ring's origin, where the reference's Sub saturates, must instead leave
// the ring holding just the newest readings of its run.
func FuzzAppendRunMatchesAppend(f *testing.F) {
	f.Add(uint8(4), uint8(5), uint8(1), []byte{0, 0, 0, 1, 4, 4, 9, 2, 1, 0xf0, 0, 0, 5, 0x80, 3, 0x81})
	// Year 1 at 750 ms: readings before the zero time, a late run, a run
	// longer than the ring and a far jump forward.
	f.Add(uint8(0), uint8(7), uint8(0), []byte{4, 0xf8, 5, 0, 0, 0x10, 0, 0, 4, 0xe0, 6, 0, 5, 0, 20, 7, 0x18, 0x10, 3, 0, 0, 0, 0, 0})
	// Year 9999 at 7 minutes with an invalid reading inside a run.
	f.Add(uint8(3), uint8(12), uint8(2), []byte{4, 0, 12, 0, 5, 0x08, 6, 0x83, 2, 0xfc, 0, 0, 6, 0x40, 30, 0, 0x1c, 0, 2, 0})
	f.Fuzz(func(t *testing.T, stepKind, ringSlots, epoch uint8, ops []byte) {
		step := runSteps[int(stepKind)%len(runSteps)]
		slots := 1 + int(ringSlots)%48
		cfg := Config{Step: step, Retention: time.Duration(slots) * step, RejectImpulses: epoch&4 != 0}
		base := runEpochs[int(epoch)%len(runEpochs)]
		st, ref := New(cfg), &refStore{cfg: cfg, rings: make(map[string]*timeRing)}
		cursor := make(map[string]int64)
		ids := []string{"a", "b", "c"}
		for k := 0; k+4 <= len(ops) && k < 4*64; k += 4 {
			op := ops[k : k+4]
			id := ids[int(op[0])%len(ids)]
			// Up to 32 slots back from the instance's newest, or 31 on.
			slot := cursor[id] + int64(int8(op[1]))/4
			at := base.Add(time.Duration(slot)*step + time.Duration(op[3]&0x7f)*step/128)
			if op[0]&0x18 == 0x18 { // 300 years on, or back
				years := 300
				if op[1]&0x80 != 0 {
					years = -years
				}
				at = at.AddDate(years, 0, 0)
			}
			n, run := 1, op[0]&4 != 0
			if run {
				n = int(op[2]) % (2*slots + 2)
			}
			values := make([]float64, n)
			for i := range values {
				values[i] = float64(100 + (k+i)%97)
			}
			if op[3]&0x80 != 0 && n > 0 {
				values[int(op[2]/4)%n] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, math.Copysign(0, -1), 0}[op[1]%6]
			}
			label := fmt.Sprintf("op %d: %s %d readings from %v", k/4, id, n, at)

			if saturates(ref.rings[id], at, step) {
				checkFarJump(t, label, st, ref, id, at, values)
				continue
			}
			var err, want error
			wantAt := 0
			if run {
				err = st.AppendRun(id, at, values)
				wantAt, want = ref.appendRun(id, at, values)
			} else {
				err, want = st.Append(id, at, values[0]), ref.append(id, at, values[0])
			}
			sameAppendError(t, label, run, err, want, wantAt)
			if want == nil {
				cursor[id] = max(cursor[id], slot+int64(n))
			}
			sameStores(t, label, st, ref, ids)
		}
	})
}

// sameAppendError fails unless err is the error want the reference met, at
// reading i of a run.
func sameAppendError(t *testing.T, label string, run bool, err, want error, i int) {
	t.Helper()
	switch {
	case (err == nil) != (want == nil):
		t.Fatalf("%s: error %v, reference %v", label, err, want)
	case want == nil:
	case errors.Is(err, ErrStale) != errors.Is(want, ErrStale) || errors.Is(err, ErrBadReading) != errors.Is(want, ErrBadReading):
		t.Fatalf("%s: error %v, reference %v", label, err, want)
	case !run && err.Error() != want.Error():
		t.Fatalf("%s: error %q, reference %q", label, err, want)
	case run && (!strings.HasSuffix(err.Error(), ": "+want.Error()) || !strings.Contains(err.Error(), fmt.Sprintf(" reading %d of a run ", i))):
		t.Fatalf("%s: error %q, reference %q at reading %d", label, err, want, i)
	}
}

// sameStores fails unless the store and the reference hold the same rings:
// the same checkpoint bytes, Coverage and reads over every ring and the
// slots either side of it.
func sameStores(t *testing.T, label string, st *Store, ref *refStore, ids []string) {
	t.Helper()
	var got, want bytes.Buffer
	must(t, st.Save(&got))
	must(t, ref.save(&want))
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: checkpoint\n%s\nreference\n%s", label, got.Bytes(), want.Bytes())
	}
	step := st.Step()
	for _, id := range ids {
		c, err := st.Coverage(id)
		wc, werr := ref.coverage(id)
		if c != wc || (err == nil) != (werr == nil) {
			t.Fatalf("%s: coverage of %s %v, %v; reference %v, %v", label, id, c, err, wc, werr)
		}
		r := ref.rings[id]
		if r == nil {
			continue
		}
		from, to := r.start.Add(-2*step), r.start.Add(time.Duration(len(r.values)+2)*step)
		tr, q, err := st.SnapshotQuality(id, from, to)
		wtr, wq, werr := timeRingRead(st.cfg, r, id, from, to)
		sameRead(t, label+" read "+id, tr, wtr, q, wq, err, werr)
	}
}

// checkFarJump appends a run whose first reading lies past the reach of
// the reference's Sub and checks the store's own rule: the ring empties and
// holds the run's newest readings, the last of them its latest. The
// reference then takes the store's ring, so the fuzz can go on.
func checkFarJump(t *testing.T, label string, st *Store, ref *refStore, id string, at time.Time, values []float64) {
	t.Helper()
	if err := st.AppendRun(id, at, values); err != nil || len(values) == 0 {
		if _, want := ref.appendRun(id, at, values); (err == nil) != (want == nil) {
			t.Fatalf("%s: error %v, reference %v", label, err, want)
		}
		return
	}
	step, slots := st.Step(), st.slots
	last := at.Truncate(step).Add(time.Duration(len(values)-1) * step)
	want := &timeRing{start: last.Add(-time.Duration(slots-1) * step), latest: last, values: nanSlice(slots)}
	kept := min(len(values), slots)
	copy(want.values[slots-kept:], values[len(values)-kept:])
	st.mu.RLock()
	r := st.instances[id]
	got := &timeRing{start: st.slotTime(r.start), latest: st.slotTime(r.latest), values: r.slotValues()}
	st.mu.RUnlock()
	if !got.start.Equal(want.start) || !got.latest.Equal(want.latest) || !sameBits(got.values, want.values) {
		t.Fatalf("%s: far jump left ring %+v, want %+v", label, got, want)
	}
	ref.rings[id] = got
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSlotGridMatchesTruncate pins slot numbers to time.Time.Truncate's grid
// at whole, odd, fractional and sub-second steps, for times around 1970,
// around and before year 1, near year 9999 and at the far ends of the
// store's range, and the range itself: a 1 ns step numbers slots only out
// to 146 years either side of the zero time.
func TestSlotGridMatchesTruncate(t *testing.T) {
	times := []time.Time{
		t0.Add(12345678901), time.Unix(0, 0), time.Unix(-1, 999999999),
		time.Time{}, time.Time{}.Add(-1), time.Time{}.Add(-750 * time.Millisecond), time.Time{}.Add(37 * time.Hour),
		year9999.Add(-3), time.Date(-40000, 3, 1, 0, 0, 0, 1, time.UTC), time.Date(2e9, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-2e9, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for _, step := range append([]time.Duration{time.Nanosecond, 70 * time.Nanosecond}, runSteps...) {
		st := New(Config{Step: step, Retention: step})
		for _, at := range times {
			k, ok := st.slotOf(at)
			// The slot's number on a 128-bit grid: nanoseconds since the zero
			// time over the step, floored.
			ns := new(big.Int).Mul(big.NewInt(at.Unix()+zeroToUnix), big.NewInt(1e9))
			ns.Add(ns, big.NewInt(int64(at.Nanosecond())))
			want, _ := new(big.Int).DivMod(ns, big.NewInt(int64(step)), new(big.Int))
			inRange := want.IsInt64() && want.Int64() >= -maxSlot && want.Int64() <= maxSlot
			if ok != inRange || ok && k != want.Int64() {
				t.Fatalf("step %v, %v: slot %d, %v; want %v, %v", step, at, k, ok, want, inRange)
			}
			if ok && !st.slotTime(k).Equal(at.Truncate(step)) {
				t.Fatalf("step %v, %v: slot %d begins %v, Truncate gives %v", step, at, k, st.slotTime(k), at.Truncate(step))
			}
			if err := st.Append("a", at, 1); ok == errors.Is(err, ErrBadReading) {
				t.Fatalf("step %v, %v: Append: %v", step, at, err)
			}
		}
	}
}

// TestAppendRunFailsWhole: a failing run changes nothing and names the
// reading Append would first fail on — an invalid value, unless the first
// reading is stale — and a run that succeeds leaves the store as Append
// does reading by reading, here shifting the origin back and then past
// the ring's end.
func TestAppendRunFailsWhole(t *testing.T) {
	cfg := Config{Step: time.Minute, Retention: 5 * time.Minute}
	st, one := New(cfg), New(cfg)
	for _, s := range []*Store{st, one} {
		must(t, s.Append("a", t0.Add(10*time.Minute), 10))
	}
	saved := func(s *Store) string {
		var buf bytes.Buffer
		must(t, s.Save(&buf))
		return buf.String()
	}
	before := saved(st)
	for _, tc := range []struct {
		start  time.Duration
		values []float64
		want   error
		at     int
	}{
		{8 * time.Minute, []float64{1, 2, math.NaN(), 4}, ErrBadReading, 2},
		{8 * time.Minute, []float64{-1, 2}, ErrBadReading, 0},
		{5 * time.Minute, []float64{1, 2, math.Inf(1)}, ErrStale, 0},
	} {
		err := st.AppendRun("a", t0.Add(tc.start), tc.values)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), fmt.Sprintf(" reading %d of a run ", tc.at)) {
			t.Fatalf("run %v from +%v: %v, want %v at reading %d", tc.values, tc.start, err, tc.want, tc.at)
		}
		if got := saved(st); got != before {
			t.Fatalf("failed run %v changed the store:\n%s\n%s", tc.values, got, before)
		}
	}
	run := []float64{7, 8, 9, 10, 11, 12, 13, 14}
	must(t, st.AppendRun("a", t0.Add(6*time.Minute), run))
	for i, w := range run {
		must(t, one.Append("a", t0.Add(time.Duration(6+i)*time.Minute), w))
	}
	if got, want := saved(st), saved(one); got != want {
		t.Fatalf("run left\n%s\nreading by reading\n%s", got, want)
	}
}

// TestAppendFarJumpEmptiesRing: a reading any distance after a ring's
// origin — here 300 years, past the reach of a Duration — empties the ring
// and becomes its newest reading, and the store still saves a checkpoint
// that loads back.
func TestAppendFarJumpEmptiesRing(t *testing.T) {
	st := New(Config{Step: time.Hour, Retention: 4 * time.Hour})
	must(t, st.Append("a", t0, 1))
	far := t0.AddDate(300, 0, 0)
	must(t, st.Append("a", far, 2))
	if c, err := st.Coverage("a"); err != nil || c != 0.25 {
		t.Fatalf("coverage after the jump: %v, %v; want one reading over the ring", c, err)
	}
	if err := st.Append("a", t0, 3); !errors.Is(err, ErrStale) {
		t.Fatalf("reading back at the old origin: %v, want ErrStale", err)
	}
	var buf bytes.Buffer
	must(t, st.Save(&buf))
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("reloading: %v", err)
	}
	if tr := snapshot(t, back, "a", far.Add(-3*time.Hour), far.Add(time.Hour)); !slices.Equal(tr.Values, []float64{2, 2, 2, 2}) {
		t.Fatalf("reloaded ring reads %v", tr.Values)
	}
}

// TestAppendAllocatesNothing: Append into an existing ring allocates
// nothing, whether it overwrites a slot, fills one, opens one at the end,
// shifts the origin back or switches instance.
func TestAppendAllocatesNothing(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: 10 * time.Minute})
	for _, id := range []string{"a", "b"} {
		must(t, st.Append(id, t0.Add(5*time.Minute), 1))
	}
	next := 6
	if allocs := testing.AllocsPerRun(50, func() {
		for _, id := range []string{"a", "b"} {
			must(t, st.Append(id, t0.Add(time.Duration(next)*time.Minute), 2))    // a new slot
			must(t, st.Append(id, t0.Add(time.Duration(next)*time.Minute), 3))    // overwrite
			must(t, st.Append(id, t0.Add(time.Duration(next-9)*time.Minute), 4))  // shift back or fill
			must(t, st.Append(id, t0.Add(time.Duration(next+12)*time.Minute), 5)) // past the end
		}
		next += 13
	}); allocs != 0 {
		t.Fatalf("Append allocates %v times per pass", allocs)
	}
}
