package tracestore

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

// FuzzLoad checks the checkpoint reader against arbitrary bytes: Load never
// panics, and a store it accepts reports each ring's coverage as a fraction
// in [0, 1], no less than its readings over all its slots, can be read,
// appended to (a late reading never evicts a held one) and saved, and its
// checkpoint loads back to the same bytes.
func FuzzLoad(f *testing.F) {
	valid := New(Config{Step: 30 * time.Minute, Retention: 4 * time.Hour, RejectImpulses: true})
	for i, w := range []float64{10, 11, 90, 12, 13} {
		if err := valid.Append("a", t0.Add(time.Duration(2*i)*30*time.Minute), w); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := valid.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Truncated.
	f.Add(buf.Bytes()[:buf.Len()/2])
	// A ring starting off the step grid.
	f.Add([]byte(`{"step_seconds":60,"retention_seconds":180,"instances":{"a":{"start":"2016-07-25T00:00:30Z","latest":"2016-07-25T00:00:30Z","values":[1,-1,3]}}}`))
	// A sub-second step on its grid.
	f.Add([]byte(`{"step_seconds":0.25,"retention_seconds":1,"instances":{"a":{"start":"2016-07-25T00:00:00.75Z","latest":"2016-07-25T00:00:01.5Z","values":[1,2,-1,4]}}}`))
	// A ring shorter than the retention.
	f.Add([]byte(`{"step_seconds":60,"retention_seconds":120,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2016-07-25T00:00:00Z","values":[]}}}`))
	// A reading newer than latest, which Load refuses: Append would shift
	// the origin back over it.
	f.Add([]byte(`{"step_seconds":60,"retention_seconds":300,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2016-07-25T00:00:00Z","values":[2,-1,-1,-1,7]}}}`))
	// A latest reading a year past the ring's last slot, which Load refuses:
	// Coverage would read 2 readings over a year of slots.
	f.Add([]byte(`{"step_seconds":60,"retention_seconds":300,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2017-07-25T00:00:00Z","values":[2,-1,7,-1,-1]}}}`))
	// A latest between two slots, which Load refuses: the ring holds it as
	// a slot number.
	f.Add([]byte(`{"step_seconds":0.75,"retention_seconds":3,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2016-07-25T00:00:01Z","values":[1,2,-1,-1]}}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		step, retention := st.Step(), st.cfg.retention()
		slots := float64(retention / step)
		for _, id := range st.Instances() {
			// Coverage counts the readings over the span up to latest, which
			// lies inside the ring: at least the readings over every slot.
			held := float64(len(heldReadings(st, id)))
			if c, err := st.Coverage(id); err != nil || !(c >= 0 && c <= 1) || c < held/slots {
				t.Fatalf("coverage of loaded ring %q = %v, %v; want a fraction in [%v, 1]", id, c, err, held/slots)
			}
			st.mu.RLock()
			start := st.slotTime(st.instances[id].start)
			st.mu.RUnlock()
			// The slot before the ring and the whole ring: neither window
			// leaves the Duration range, whatever the step.
			for _, w := range [][2]time.Time{{start.Add(-step), start}, {start, start.Add(retention)}} {
				if _, _, err := st.SnapshotQuality(id, w[0], w[1]); err != nil {
					t.Fatalf("read of loaded ring %q: %v", id, err)
				}
			}
			// A reading before the origin either is stale or shifts the
			// origin back without evicting any reading the ring held.
			for _, back := range []int{1, max(1, int(retention/step)-1)} {
				held := heldReadings(st, id)
				at := start.Add(-time.Duration(back) * step)
				if err := st.Append(id, at, 1); err != nil {
					if !errors.Is(err, ErrStale) {
						t.Fatalf("append %d slots before loaded ring %q: %v", back, id, err)
					}
					continue
				}
				got := heldReadings(st, id)
				for _, h := range held {
					if !slices.ContainsFunc(got, func(g reading) bool { return g.at.Equal(h.at) && g.watts == h.watts }) {
						t.Fatalf("append %d slots before loaded ring %q evicted %v W at %v", back, id, h.watts, h.at)
					}
				}
			}
			// Writing the origin slot indexes the loaded ring without moving
			// latest past a time the checkpoint could already hold.
			if err := st.Append(id, start, 1); err != nil {
				t.Fatalf("append to loaded ring %q: %v", id, err)
			}
		}
		// Save writes step and retention as float seconds, which round back
		// to the same nanoseconds only up to float64 precision.
		if d, _ := checkpointDuration(step.Seconds()); d != step {
			return
		}
		if d, _ := checkpointDuration(retention.Seconds()); d != retention {
			return
		}
		var first, second bytes.Buffer
		if err := st.Save(&first); err != nil {
			t.Fatal(err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved checkpoint: %v", err)
		}
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("checkpoint changed across a round trip:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// reading is one held slot: its time and its watts.
type reading struct {
	at    time.Time
	watts float64
}

// heldReadings lists the readings an instance's ring holds, in time order.
func heldReadings(st *Store, id string) []reading {
	st.mu.RLock()
	defer st.mu.RUnlock()
	r := st.instances[id]
	var out []reading
	for i, v := range r.slotValues() {
		if !math.IsNaN(v) {
			out = append(out, reading{st.slotTime(r.start + int64(i)), v})
		}
	}
	return out
}
