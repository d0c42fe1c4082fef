package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/sketch"
)

// Snapshot is a serializable view of a controller's published state: the
// zone records applications query, each zone's current epoch, and (in
// full snapshots) the serialized trailing-window sketch, so recovery
// restores each zone's whole retained distribution — quantiles, moments
// and trend — not just the point estimate. In-progress epoch accumulators
// are still excluded; they are reconstructed by replaying the durable
// store's WAL tail on recovery, while the published records keep serving
// queries immediately (a coordinator restart must not blind every
// application).
type Snapshot struct {
	TakenAt time.Time       `json:"taken_at"`
	Config  Config          `json:"config"`
	Origin  geo.Point       `json:"origin"`
	Entries []SnapshotEntry `json:"entries"`
}

// SnapshotEntry is one zone statistic's persisted state. Sketch is the
// internal/sketch binary serialization of the trailing-window EpochSketch
// (base64 in JSON); it is omitted from View snapshots.
type SnapshotEntry struct {
	Key          Key     `json:"key"`
	Record       *Record `json:"record,omitempty"`
	EpochSeconds float64 `json:"epoch_seconds"`
	TotalCount   int64   `json:"total_count"`
	Sketch       []byte  `json:"sketch,omitempty"`
}

// Snapshot captures the controller's publishable state at an instant,
// including each zone's serialized window sketch (the checkpoint form).
func (c *Controller) Snapshot(at time.Time) Snapshot {
	return c.snapshot(at, true)
}

// View is Snapshot without the serialized sketches — the cheap form for
// read-side consumers (ops handlers, dashboards) that only want records
// and epochs and would otherwise pay sketch serialization per scrape.
func (c *Controller) View(at time.Time) Snapshot {
	return c.snapshot(at, false)
}

// snapshot takes a fixed number of allocations whatever the number of keys:
// a first pass sorts the keys and sizes the records and the sketch bytes, and
// the entries, the records and the sketches then each fill one slice, every
// entry's sketch a capacity-capped window of the one arena.
func (c *Controller) snapshot(at time.Time, withSketches bool) Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{TakenAt: at, Config: c.cfg, Origin: c.grid.Origin()}
	if len(c.zones) == 0 {
		return s // a controller with no zones has always checkpointed "entries": null
	}
	keys := make([]Key, 0, len(c.zones))
	nrec, nbytes := 0, 0
	var sizer [4096]byte // one window sketch's bytes, on the stack
	for k, st := range c.zones {
		keys = append(keys, k)
		if st.hasRecord {
			nrec++
		}
		if withSketches && st.window.Count() > 0 {
			nbytes += len(st.window.AppendBinary(sizer[:0]))
		}
	}
	// Keys are unique, so the order is total and the sort need not be stable.
	slices.SortFunc(keys, Key.Compare)
	s.Entries = make([]SnapshotEntry, len(keys))
	records := make([]Record, 0, nrec)
	arena := make([]byte, 0, nbytes)
	for i, k := range keys {
		st := c.zones[k]
		e := &s.Entries[i]
		*e = SnapshotEntry{Key: k, EpochSeconds: st.epoch.Seconds(), TotalCount: st.totalCount}
		if st.hasRecord {
			records = append(records, st.published)
			e.Record = &records[len(records)-1]
		}
		if withSketches && st.window.Count() > 0 {
			start := len(arena)
			arena = st.window.AppendBinary(arena)
			e.Sketch = arena[start:len(arena):len(arena)]
		}
	}
	return s
}

// Restore rebuilds a controller from a snapshot: published records and
// epochs are restored so estimate queries work immediately; window
// sketches are deserialized so the NKLD/Allan analyses resume with their
// accumulated distributions (a zone whose sketch is absent or corrupt
// starts fresh and refills from live traffic).
func Restore(s Snapshot) *Controller {
	c := NewController(s.Config, s.Origin)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range s.Entries {
		st := c.newZoneState()
		st.epoch = time.Duration(e.EpochSeconds * float64(time.Second))
		st.epochValid = true
		st.totalCount = e.TotalCount
		if st.epoch <= 0 {
			st.epoch = s.Config.DefaultEpoch
		}
		if e.Record != nil {
			st.published = *e.Record
			st.published.Key = e.Key // a record is served under the key it is kept at
			st.hasRecord = true
		}
		if len(e.Sketch) > 0 {
			if w, err := sketch.UnmarshalEpochSketch(e.Sketch); err == nil {
				st.window = w
			}
		}
		c.zones[e.Key] = st
	}
	// The published lists are built from what the entries left in zones (a
	// repeated key keeps its last entry, as zones does), one sort each.
	for _, st := range c.zones {
		if st.hasRecord {
			v := view{Net: st.published.Key.Net, Metric: st.published.Key.Metric}
			c.views[v] = append(c.views[v], st)
		}
	}
	for _, list := range c.views {
		slices.SortFunc(list, func(a, b *zoneState) int { return a.published.Key.Compare(b.published.Key) })
	}
	return c
}

// WriteSnapshot serializes a snapshot as indented JSON.
func WriteSnapshot(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot parses a snapshot written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return s, nil
}
