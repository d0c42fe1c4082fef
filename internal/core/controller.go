package core

import (
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/trace"
)

// zoneState is the mutable per-(zone, network, metric) state. Every piece
// is constant-memory: the trailing window and current epoch are quantile
// sketches (internal/sketch), not sample buffers, so a zone's footprint is
// the same after its millionth sample as after its hundredth.
type zoneState struct {
	// window is the trailing-window sketch: quantile digest + exact
	// moments + telescoping trend ring. It feeds the NKLD sample-count
	// analysis (via quantile-spaced reconstruction), the Allan epoch
	// derivation (via the trend series) and checkpoint/fan-out payloads.
	window *sketch.EpochSketch

	// cur accumulates the epoch window currently being filled; its digest
	// supplies the published record's quantiles.
	cur *sketch.EpochSketch

	epoch      time.Duration // current epoch length (Allan minimum)
	epochValid bool
	epochCount int64 // window sample count when the epoch was last computed

	required      int   // NKLD-derived samples per epoch (0 = not yet derived)
	requiredCount int64 // window sample count when required was last computed

	curEpochIdx int64 // index of the epoch window being accumulated

	published  Record
	hasRecord  bool
	totalCount int64
}

// Controller is the WiScape measurement coordinator's brain: it ingests
// client-sourced samples, maintains per-zone-epoch estimates, decides how
// many samples each zone needs and how often, and emits alerts on abrupt
// changes. It is safe for concurrent use.
type Controller struct {
	cfg  Config
	grid *geo.Grid

	mu    sync.Mutex
	zones map[Key]*zoneState

	// views holds, per network and metric, the states of the keys that
	// have a record, in key order: what Records serves, without a scan of
	// every key or a sort. A key joins its list once, when its first record
	// is published, and never leaves it (Restore rebuilds the lists).
	views map[view][]*zoneState

	// alerts is a ring: alertHead indexes the oldest pending alert,
	// alertLen counts pending ones. It is allocated by the first alert and
	// grows, when full, up to DefaultAlertBuffer; full at that size, the
	// oldest is overwritten and alertsDropped incremented — an unread
	// backlog must not grow without bound.
	alerts        []Alert
	alertHead     int
	alertLen      int
	alertsDropped int64

	budgetRefreshes int64 // NKLD resampling sweeps run by RequiredSamplesFor

	// spare holds the storage of budget refreshes no caller is running: a
	// refresh takes one under mu before it lets go, sweeps in it outside,
	// and puts it back with the budget. There are never more than the
	// refreshes that ran at once, and at most maxSpareRefreshes stay.
	spare []*refreshScratch

	// The series and window sizes epochFromWindow sweeps. A key asks again
	// each time its window has grown by half, and on every Ingest while it
	// has a trend but no valid epoch, so the space is kept; like everything
	// above it is touched only under mu.
	trendScratch  []float64
	windowScratch []int
}

// refreshScratch is one budget refresh's storage: the values reconstructed
// from a window and the NKLD reference prepared from them.
type refreshScratch struct {
	vals []float64
	ref  stats.NKLDReference
}

// maxSpareRefreshes bounds Controller.spare: refreshes run one per caller,
// and a server has a caller per connection, so a burst of more than this
// many at once gives the excess back to the collector.
const maxSpareRefreshes = 8

// view names one published list: a network and a metric, every zone.
type view struct {
	Net    radio.NetworkID
	Metric trace.Metric
}

// NewController returns a controller for a region centered at origin.
func NewController(cfg Config, origin geo.Point) *Controller {
	if cfg.ZoneRadiusM <= 0 {
		cfg = DefaultConfig()
	}
	return &Controller{
		cfg:   cfg,
		grid:  geo.GridForZoneRadius(origin, cfg.ZoneRadiusM),
		zones: make(map[Key]*zoneState),
		views: make(map[view][]*zoneState),
	}
}

// newZoneState builds an empty per-key state.
func (c *Controller) newZoneState() *zoneState {
	st := &zoneState{
		window:      sketch.NewEpochSketch(sketch.DefaultCompression),
		cur:         sketch.NewEpochSketch(sketch.EpochCompression),
		epoch:       c.cfg.DefaultEpoch,
		curEpochIdx: -1,
	}
	st.window.EnableTrend(sketch.DefaultTrendSlots, time.Minute)
	return st
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}

// Grid returns the zone grid.
func (c *Controller) Grid() *geo.Grid { return c.grid }

// ZoneOf maps a location to its zone.
func (c *Controller) ZoneOf(p geo.Point) geo.ZoneID { return c.grid.Zone(p) }

// Ingest folds client samples into their keys' sketches, in order, handling
// epoch rollover and record publication. A failed sample carries no value
// and is dropped. It takes the controller's lock once per call, so a
// report's samples go in together.
func (c *Controller) Ingest(samples ...trace.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range samples {
		c.ingestLocked(s)
	}
}

// ingestLocked folds one sample into the zone state.
func (c *Controller) ingestLocked(s trace.Sample) {
	// Reject unusable values outright: one NaN would poison a zone's
	// accumulator forever, and one beyond MaxSampleMagnitude its trend ring.
	if s.Failed || !(math.Abs(s.Value) <= MaxSampleMagnitude) {
		return
	}

	key := Key{Zone: c.grid.Zone(s.Loc), Net: s.Network, Metric: s.Metric}
	st := c.zones[key]
	if st == nil {
		st = c.newZoneState()
		c.zones[key] = st
	}

	// Bounded window: once the sketch's retained weight reaches the
	// history limit, halve it. Decay stands in for the old "drop the
	// oldest half of the buffer" — recent epochs dominate the window while
	// memory stays fixed.
	if st.window.Weight() >= historyLimit {
		st.window.Decay(0.5)
		// The counts remembered at the last epoch and budget analyses
		// shrink with the window: a saturated window's count stays between
		// half the limit and the limit, so a count remembered above half
		// the limit could otherwise never be outgrown again and the zone
		// would keep its first epoch and budget for ever.
		st.epochCount /= 2
		st.requiredCount /= 2
	}
	st.window.Observe(s.Time, s.Value)
	st.totalCount++

	// Periodically re-derive the zone epoch from the window trend (every
	// time the window grows 50% past the last analysis).
	if !c.cfg.DisableEpochAdaptation && (!st.epochValid || st.window.Count() > st.epochCount*3/2) {
		if ep, ok := c.epochFromWindow(st.window); ok {
			st.epoch = ep
			st.epochValid = true
			st.epochCount = st.window.Count()
		}
	}

	idx := int64(s.Time.Sub(radio.Epoch) / st.epoch)
	if st.curEpochIdx >= 0 && idx != st.curEpochIdx {
		c.finalizeEpochLocked(key, st, s.Time)
	}
	st.curEpochIdx = idx
	st.cur.Add(s.Value)
}

// IngestDataset folds a whole dataset in time order.
func (c *Controller) IngestDataset(d *trace.Dataset) {
	sorted := &trace.Dataset{Name: d.Name, Samples: append([]trace.Sample(nil), d.Samples...)}
	sorted.SortByTime()
	c.Ingest(sorted.Samples...)
}

// recordFrom builds a publishable record from the closing epoch sketch.
func recordFrom(key Key, es *sketch.EpochSketch, at time.Time) Record {
	return Record{
		Key:       key,
		MeanValue: es.Mean(),
		StdDev:    es.StdDev(),
		Samples:   es.Count(),
		P50:       es.Quantile(0.50),
		P90:       es.Quantile(0.90),
		P99:       es.Quantile(0.99),
		UpdatedAt: at,
	}
}

// finalizeEpochLocked closes the current epoch window: publishes a first
// record, or replaces the published record when the estimate moved by more
// than ChangeSigmas standard deviations (emitting an alert).
func (c *Controller) finalizeEpochLocked(key Key, st *zoneState, at time.Time) {
	if st.cur.Count() == 0 {
		return
	}
	candidate := recordFrom(key, st.cur, at)
	defer func() { st.cur.Reset(0) }()

	if !st.hasRecord {
		st.published = candidate
		st.hasRecord = true
		c.publishLocked(st)
		return
	}
	prev := st.published
	delta := candidate.MeanValue - prev.MeanValue
	if delta < 0 {
		delta = -delta
	}
	threshold := c.cfg.ChangeSigmas * prev.StdDev
	if prev.StdDev == 0 {
		m := prev.MeanValue
		if m < 0 {
			m = -m
		}
		threshold = c.cfg.ChangeSigmas * 0.05 * m // degenerate record: 10% move
	}
	if floor := alertFloor(key.Metric); threshold < floor {
		threshold = floor
	}
	// Only statistically meaningful epochs may flip the record and page an
	// operator; drive-by epochs with a handful of samples blend in below,
	// as do metrics whose record is degenerate at zero (threshold 0 would
	// alert on any noise — e.g. a single lost packet in a loss-free zone).
	if threshold > 0 && delta > threshold && candidate.Samples >= minAlertSamples && prev.Samples >= minAlertSamples {
		st.published = candidate
		c.pushAlertLocked(Alert{Key: key, Previous: prev, Current: candidate, At: at})
		return
	}
	// Small move: refresh the record's recency and smooth the estimate so
	// slow drift is tracked without alert noise.
	st.published.MeanValue = 0.7*prev.MeanValue + 0.3*candidate.MeanValue
	st.published.StdDev = 0.7*prev.StdDev + 0.3*candidate.StdDev
	st.published.P50 = 0.7*prev.P50 + 0.3*candidate.P50
	st.published.P90 = 0.7*prev.P90 + 0.3*candidate.P90
	st.published.P99 = 0.7*prev.P99 + 0.3*candidate.P99
	st.published.Samples += candidate.Samples
	st.published.UpdatedAt = at
}

// publishLocked puts a key whose first record was just published into its
// published list, at its place in key order. The record's key is the key
// its state is kept under, and it never changes: a later record of the key
// replaces the values, not the key.
func (c *Controller) publishLocked(st *zoneState) {
	key := st.published.Key
	v := view{Net: key.Net, Metric: key.Metric}
	list := c.views[v]
	i, _ := slices.BinarySearchFunc(list, key, func(s *zoneState, k Key) int { return s.published.Key.Compare(k) })
	c.views[v] = slices.Insert(list, i, st)
}

// pushAlertLocked appends to the alert ring, growing it when full, or at
// DefaultAlertBuffer overwriting (and counting) the oldest pending alert.
func (c *Controller) pushAlertLocked(a Alert) {
	if c.alertLen == len(c.alerts) && len(c.alerts) < DefaultAlertBuffer {
		// Only a full ring at the cap wraps, so here the oldest is at 0.
		grown := make([]Alert, min(max(2*len(c.alerts), 16), DefaultAlertBuffer)) // 16 at first, then doubling
		copy(grown, c.alerts)
		c.alerts = grown
	}
	if c.alertLen == len(c.alerts) {
		c.alerts[c.alertHead] = a
		c.alertHead = (c.alertHead + 1) % len(c.alerts)
		c.alertsDropped++
		return
	}
	c.alerts[(c.alertHead+c.alertLen)%len(c.alerts)] = a
	c.alertLen++
}

// epochFromWindow derives a zone epoch as the Allan-deviation minimum of
// the window's regularized trend series (§3.2.2). The trend ring's slot
// width adapts to the observed span, so the sweep bounds (given in
// minutes) are converted to slot counts.
func (c *Controller) epochFromWindow(w *sketch.EpochSketch) (time.Duration, bool) {
	// Require enough coverage for at least two windows at the sweep floor
	// times ten, or the estimate is noise. Every Ingest of a key without a
	// valid epoch asks, so the length is checked before a series is built.
	if w.TrendLen() < 60 {
		return 0, false
	}
	series, period := w.AppendTrendSeries(c.trendScratch[:0])
	c.trendScratch = series
	if period <= 0 {
		return 0, false
	}
	minWindow := int(epochSweepMin * time.Minute / period)
	if minWindow < 1 {
		minWindow = 1
	}
	maxWindow := int(epochSweepMax * time.Minute / period)
	// Keep at least ten windows per sweep point: Allan estimates from fewer
	// are unreliable and yield spurious right-edge minima.
	if limit := len(series) / 10; limit < maxWindow {
		maxWindow = limit
	}
	c.windowScratch = stats.AppendLogSpacedWindows(c.windowScratch[:0], minWindow, maxWindow, 25)
	best, _ := stats.MinAllanWindow(series, c.windowScratch)
	if best <= 0 {
		return 0, false
	}
	epoch := time.Duration(best) * period
	if epoch < minEpoch {
		epoch = minEpoch
	}
	return epoch, true
}

// Estimate returns the published record for a key.
func (c *Controller) Estimate(key Key) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.zones[key]
	if st == nil {
		return Record{}, false
	}
	if st.hasRecord {
		return st.published, true
	}
	// Before the first epoch closes, serve the running sketch (marked by
	// UpdatedAt zero).
	if st.cur.Count() > 0 {
		return recordFrom(key, st.cur, time.Time{}), true
	}
	return Record{}, false
}

// EstimateAt is Estimate keyed by location instead of zone id.
func (c *Controller) EstimateAt(p geo.Point, net radio.NetworkID, m trace.Metric) (Record, bool) {
	return c.Estimate(Key{Zone: c.grid.Zone(p), Net: net, Metric: m})
}

// nkldReconstructed bounds how many quantile-spaced values are rebuilt
// from the window digest for the NKLD analysis.
const nkldReconstructed = 512

// RequiredSamplesFor returns the zone's NKLD-derived per-epoch sample
// requirement (§3.3), falling back to the configured default until enough
// of the window has accumulated. The computation is cached and refreshed
// each time the window doubles, so the scheduler can call this on every
// task round. The caller that finds the cache stale claims the refresh
// before it lets go of mu: callers arriving while it resamples read the
// budget already cached (the default, during a key's first refresh)
// instead of each repeating the sweep. The refresh runs in spare storage
// (see Controller.spare), so once warm it allocates nothing.
func (c *Controller) RequiredSamplesFor(key Key) int {
	c.mu.Lock()
	cfg := c.cfg // copied under mu; the resampling below runs outside it
	st := c.zones[key]
	if st == nil {
		c.mu.Unlock()
		return cfg.DefaultSamplesPerEpoch
	}
	count := st.window.Count()
	if st.required != 0 && count <= st.requiredCount*2 {
		n := st.required
		c.mu.Unlock()
		return n
	}
	if st.required == 0 {
		st.required = cfg.DefaultSamplesPerEpoch
	}
	st.requiredCount = count
	c.budgetRefreshes++
	// Reconstruct quantile-spaced values from the digest under the lock
	// (cheap), then run the 100-iteration resampling analysis outside it.
	m := int(count)
	if m > nkldReconstructed {
		m = nkldReconstructed
	}
	var sc *refreshScratch
	if last := len(c.spare) - 1; last >= 0 {
		sc = c.spare[last]
		c.spare[last] = nil
		c.spare = c.spare[:last]
	} else {
		sc = new(refreshScratch)
	}
	sc.vals = st.window.AppendSamples(sc.vals[:0], m)
	c.mu.Unlock()

	n, ok := RequiredSamples(&sc.ref, sc.vals, cfg, uint64(count))
	if !ok {
		n = cfg.DefaultSamplesPerEpoch
	}

	c.mu.Lock()
	st.required = n
	if len(c.spare) < maxSpareRefreshes {
		c.spare = append(c.spare, sc)
	}
	c.mu.Unlock()
	return n
}

// BudgetRefreshes returns how many times RequiredSamplesFor has run the
// NKLD resampling sweep — once per doubling of a key's window is the
// expected rate.
func (c *Controller) BudgetRefreshes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budgetRefreshes
}

// EpochOf returns the zone's current epoch length.
func (c *Controller) EpochOf(key Key) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.zones[key]; st != nil {
		return st.epoch
	}
	return c.cfg.DefaultEpoch
}

// SampleCount returns the total samples ingested for a key.
func (c *Controller) SampleCount(key Key) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.zones[key]; st != nil {
		return st.totalCount
	}
	return 0
}

// RetainedBytes returns the fixed memory footprint of a key's estimator
// state — the acceptance bound the benchmarks assert (≤ 4 KiB regardless
// of sample count). Zero for untracked keys.
func (c *Controller) RetainedBytes(key Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.zones[key]
	if st == nil {
		return 0
	}
	const zoneStateBytes = 120 // scalar fields + published record
	return st.window.FootprintBytes() + st.cur.FootprintBytes() + zoneStateBytes
}

// SketchFor serializes a key's trailing-window sketch — the unit shards
// ship to the cluster gateway for distribution-preserving merges, and the
// distribution payload of checkpoints. ok is false for untracked keys.
func (c *Controller) SketchFor(key Key) ([]byte, bool) { return c.AppendSketch(nil, key) }

// AppendSketch appends the bytes SketchFor returns to dst, so a caller that
// keeps its buffer serializes without allocating. For an untracked key it
// returns dst unchanged and ok false.
func (c *Controller) AppendSketch(dst []byte, key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.zones[key]
	if st == nil {
		return dst, false
	}
	return st.window.AppendBinary(dst), true
}

// Records returns every published record for a network and metric, in
// deterministic zone order — the bulk query behind operator dashboards and
// map renderers — in a slice of its exact size, nil when there is no record.
func (c *Controller) Records(net radio.NetworkID, m trace.Metric) []Record {
	return c.AppendRecords(nil, net, m)
}

// AppendRecords appends the records Records returns to dst, so a caller that
// keeps its buffer lists a network and metric without allocating; dst grows
// at most once. It copies the published list: no other key is looked at and
// nothing is sorted under mu.
func (c *Controller) AppendRecords(dst []Record, net radio.NetworkID, m trace.Metric) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	list := c.views[view{Net: net, Metric: m}]
	if len(list) == 0 {
		return dst
	}
	if dst == nil {
		dst = make([]Record, 0, len(list)) // Records' slice is of its exact size
	} else {
		dst = slices.Grow(dst, len(list))
	}
	for _, st := range list {
		dst = append(dst, st.published)
	}
	return dst
}

// Alerts drains the pending alert queue (oldest first).
func (c *Controller) Alerts() []Alert {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.alertLen == 0 {
		return nil
	}
	out := make([]Alert, c.alertLen)
	for i := range out {
		out[i] = c.alerts[(c.alertHead+i)%len(c.alerts)]
	}
	c.alertHead = 0
	c.alertLen = 0
	return out
}

// DroppedAlerts returns how many alerts were overwritten unread because
// the ring was full — the telemetry signal that a consumer is not keeping
// up.
func (c *Controller) DroppedAlerts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alertsDropped
}

// Keys returns all tracked keys in deterministic order.
func (c *Controller) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, len(c.zones))
	for k := range c.zones {
		out = append(out, k)
	}
	slices.SortFunc(out, Key.Compare)
	return out
}
