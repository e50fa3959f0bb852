package trace

import (
	"fmt"
	"sort"
	"strings"

	"ityr/internal/profile"
	"ityr/internal/sim"
)

// Op classifies a one-sided operation reported through Recorder.RMA.
type Op = profile.Op

// One-sided operation kinds.
const (
	OpGet    = profile.OpGet
	OpPut    = profile.OpPut
	OpAtomic = profile.OpAtomic
)

// Route values are 1-based so that the zero route reaches no consumer.
const (
	// Runtime categories of the Fig. 9 breakdown, in runtimeCats order.
	catGet = iota + 1
	catPut
	catCheckout
	catCheckin
	catRelease
	catLazyRelease
	catAcquire
)

var runtimeCats = [...]string{"Get", "Put", "Checkout", "Checkin", "Release", "Lazy Release", "Acquire"}

const (
	// Live histograms (names in histNames, bounds in NewRecorder).
	histAcquireNs = iota + 1
	histReleaseNs
	histCheckoutBytes // observes a span's Arg (bytes), not its duration
	histStealNs
	histFailedStealNs
	numHists
)

// histNames are the live histograms' keys in the metrics document.
var histNames = [numHists]string{
	histAcquireNs:     "pgas_acquire_ns",
	histReleaseNs:     "pgas_release_ns",
	histCheckoutBytes: "pgas_checkout_bytes",
	histStealNs:       "uth_steal_latency_ns",
	histFailedStealNs: "uth_failed_steal_latency_ns",
}

// lastRingKind bounds the span ring (Config.Trace): it takes spans and
// instants of every kind up to here — the event stream "itytrace/v1" dumps
// have always carried — and none of the kinds added with the recorder.
const lastRingKind = KViolation

// route says which of the consumers that account time see a span of a
// kind: the streaming profile's rollup/timeline column, the always-on
// category total, the live histogram. Instants reach none of them.
type route struct {
	span profile.SpanKind // 1 + the column
	cat  int8
	hist int8
}

// routes is the one place that decides who accounts for what.
var routes = [numKinds]route{
	KSteal:            {span: 1 + profile.SpanSteal, hist: histStealNs},
	KFailedSteal:      {span: 1 + profile.SpanSteal, hist: histFailedStealNs},
	KReplica:          {span: 1 + profile.SpanSteal},
	KTaskRun:          {span: 1 + profile.SpanTask},
	KIdle:             {span: 1 + profile.SpanIdle},
	KStall:            {span: 1 + profile.SpanStall},
	KBarrier:          {span: 1 + profile.SpanBarrier},
	KAcquire:          {cat: catAcquire, hist: histAcquireNs},
	KMigrate:          {cat: catAcquire, hist: histAcquireNs},
	KRelease:          {cat: catRelease, hist: histReleaseNs},
	KWriteBackAll:     {cat: catRelease, hist: histReleaseNs},
	KLazyWriteBackAll: {cat: catLazyRelease, hist: histReleaseNs},
	KCheckout:         {cat: catCheckout, hist: histCheckoutBytes},
	KCheckin:          {cat: catCheckin},
	KGet:              {cat: catGet},
	KPut:              {cat: catPut},
}

// Recorder is the one recording point of a run: rma, pgas, uth and core
// each hold a single pointer to it and report every moment exactly once.
// Recording only reads the virtual clock, so simulated results are
// bit-identical whichever consumers are armed.
//
// A nil *Recorder records nothing (the layers' own unit tests run that
// way). In a live one the ring and the profile are nil unless Config.Trace
// / Config.Profile armed them; the category totals and histograms are
// always on.
type Recorder struct {
	log   *Log
	prof  *profile.Profile
	cats  Categories
	hists [numHists]*Histogram
}

// NewRecorder creates the recorder for a run of ranks ranks. log and prof
// may be nil (tracing / profiling off).
func NewRecorder(ranks int, log *Log, prof *profile.Profile) *Recorder {
	r := &Recorder{log: log, prof: prof, cats: Categories{index: map[string]int{}}}
	for i, name := range runtimeCats {
		r.cats.index[name] = i
		r.cats.acc = append(r.cats.acc, make([]sim.Time, ranks))
	}
	fence := ExpBuckets(250, 2, 16)
	r.hists = [numHists]*Histogram{
		histAcquireNs:     NewHistogram(fence),
		histReleaseNs:     NewHistogram(fence),
		histCheckoutBytes: NewHistogram(ExpBuckets(64, 4, 12)),
		histStealNs:       NewHistogram(StealLatencyBounds),
		histFailedStealNs: NewHistogram(StealLatencyBounds),
	}
	return r
}

// Histograms returns the live histograms' snapshots by metrics key.
func (r *Recorder) Histograms() map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot, numHists-1)
	for h := histAcquireNs; h < numHists; h++ {
		out[histNames[h]] = r.hists[h].Snap()
	}
	return out
}

// Log returns the span ring (nil when tracing is off).
func (r *Recorder) Log() *Log { return r.log }

// Profile returns the streaming profile (nil when profiling is off).
func (r *Recorder) Profile() *profile.Profile { return r.prof }

// Categories returns the always-on Fig. 9 category totals.
func (r *Recorder) Categories() *Categories { return &r.cats }

// Span reports a closed span of kind k covering [t0, t0+d) on rank.
func (r *Recorder) Span(rank int, k Kind, t0, d sim.Time, arg, arg2 int64) {
	r.SpanAs("", rank, k, t0, d, arg, arg2)
}

// SpanAs is Span with the category total redirected: a non-empty cat names
// the category charged in place of the kind's own (apps use it to
// attribute runtime calls, and their own KCompute time, to a phase).
func (r *Recorder) SpanAs(cat string, rank int, k Kind, t0, d sim.Time, arg, arg2 int64) {
	if r == nil {
		return
	}
	if k <= lastRingKind && r.log != nil {
		r.log.rec(Event{T: t0, Dur: d, Rank: rank, Kind: k, Arg: arg, Arg2: arg2})
	}
	rt := &routes[k]
	if rt.span != 0 && r.prof != nil { // the idle loop's span: skip the call when off
		r.prof.Span(rank, rt.span-1, t0, d)
	}
	c := int(rt.cat) - 1
	if cat != "" {
		// Only redirected spans resolve by name. A new name grows the
		// tables, so its first charge must come from a globally serialized
		// phase (fork-join regions, where the apps in fact charge theirs).
		i, ok := r.cats.index[cat]
		if !ok {
			i = len(r.cats.acc)
			r.cats.index[cat] = i
			r.cats.acc = append(r.cats.acc, make([]sim.Time, len(r.cats.acc[0])))
		}
		c = i
	}
	if c >= 0 {
		r.cats.acc[c][rank] += d
	}
	if rt.hist == histCheckoutBytes {
		r.hists[rt.hist].Observe(arg)
	} else if rt.hist != 0 {
		r.hists[rt.hist].Observe(int64(d))
	}
}

// Instant reports a moment of kind k at time t on rank. It reaches the
// ring alone: none of the consumers that account time.
func (r *Recorder) Instant(rank int, k Kind, t sim.Time, arg, arg2 int64) {
	if r != nil && k <= lastRingKind && r.log != nil {
		r.log.rec(Event{T: t, Rank: rank, Kind: k, Arg: arg, Arg2: arg2})
	}
}

// RMA reports one one-sided operation from rank to target.
func (r *Recorder) RMA(rank, target int, op Op, nbytes int) {
	if r != nil {
		r.prof.RMA(rank, target, op, nbytes)
	}
}

// Categories holds the totals behind the paper's Fig. 9 breakdown: virtual
// time per category and rank. A rank only ever touches its own column.
type Categories struct {
	index map[string]int // name -> row of acc; runtimeCats come first
	acc   [][]sim.Time   // [category][rank]
}

// Total returns a category's time summed over all ranks (zero for a name
// never charged).
func (c *Categories) Total(name string) (t sim.Time) {
	if i, ok := c.index[name]; ok {
		for _, v := range c.acc[i] {
			t += v
		}
	}
	return t
}

// Breakdown returns the nonzero category totals of an execution that took
// elapsed virtual time on every rank, plus an "Others" entry holding the
// unattributed remainder (elapsed × ranks − Σ categories), clamped at zero.
func (c *Categories) Breakdown(elapsed sim.Time) map[string]sim.Time {
	others := elapsed * sim.Time(len(c.acc[0]))
	out := make(map[string]sim.Time)
	for name := range c.index {
		if t := c.Total(name); t > 0 {
			out[name] = t
			others -= t
		}
	}
	out["Others"] = max(others, 0)
	return out
}

// ResetRank clears the time rank has accumulated; registered names persist.
// Every rank calls it for itself where a measured region starts.
func (c *Categories) ResetRank(rank int) {
	for _, row := range c.acc {
		row[rank] = 0
	}
}

// Format renders the breakdown as a table of shares, largest first (ties
// by name).
func (c *Categories) Format(elapsed sim.Time) string {
	bd := c.Breakdown(elapsed)
	names := make([]string, 0, len(bd))
	var total sim.Time
	for k, v := range bd {
		names = append(names, k)
		total += v
	}
	sort.Slice(names, func(i, j int) bool {
		if bd[names[i]] != bd[names[j]] {
			return bd[names[i]] > bd[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	for _, k := range names {
		frac := 0.0
		if total > 0 {
			frac = float64(bd[k]) / float64(total)
		}
		fmt.Fprintf(&b, "  %-18s %12.3f ms  %5.1f%%\n", k, float64(bd[k])/1e6, 100*frac)
	}
	return b.String()
}
