// Command perfbench is W5's benchmark. Each run starts fresh, dev-seeded
// w5d daemons, replays a seeded Zipf trace of one workload against them
// over raw keep-alive sockets, checks every reply, and prints one JSON
// line of end-to-end metrics. With -trace 1 it instead reports per-layer
// metrics: process counters of a w5d run, plus spans and counters from
// an in-process provider wired as cmd/w5d wires it.
//
// Usage (run.sh builds w5d and this command first):
//
//	perfbench -w5d BIN -workdir DIR --workload browse --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"w5/internal/workload"
)

// spec is one workload: the population and mix it replays, its two
// fixed open-loop rates, and the sizes of its windows.
type spec struct {
	name  string
	users int
	mix   []workload.MixEntry
	// capacity is a nominal closed-loop rate. With the shares below it
	// fixes each window's op count, so every run of a workload sends
	// the same ops, leaving the daemon in the same state, whatever the
	// build's speed.
	capacity float64
	lo, hi   float64
	// Shares of --seconds one window lasts: lo and hi at their rates,
	// peak and each sustained step at capacity.
	loShare, hiShare, peakShare, stepShare float64
}

var specs = []spec{
	{
		name: "browse", users: 128,
		mix: []workload.MixEntry{
			{Scenario: workload.ScenarioSocialRead, Weight: .55},
			{Scenario: workload.ScenarioWVMRead, Weight: .15},
			{Scenario: workload.ScenarioTableQuery, Weight: .25},
			{Scenario: workload.ScenarioMarketSearch, Weight: .05},
		},
		capacity: 12000, lo: 1000, hi: 4000,
		loShare: .06, hiShare: .05, peakShare: .05, stepShare: .04,
	},
	{
		name: "read-write", users: 1024,
		mix: []workload.MixEntry{
			{Scenario: workload.ScenarioSocialRead, Weight: .35},
			{Scenario: workload.ScenarioWVMRead, Weight: .10},
			{Scenario: workload.ScenarioTableQuery, Weight: .15},
			{Scenario: workload.ScenarioPhotoWrite, Weight: .40},
		},
		capacity: 8000, lo: 1000, hi: 3000,
		loShare: .05, hiShare: .04, peakShare: .05, stepShare: .04,
	},
}

const (
	warmShare = 0.02
	steps     = 5
	rounds    = 3
	conns     = 2
	drawSeed  = 1 // see trace

	// Probe windows (see probes).
	minClassOps    = 100
	writeProbeOps  = 200
	writeProbeRate = 200
	auditProbeOps  = 300
	auditProbeRate = 100
	loginProbeOps  = 200 // traced run only, see layerProbes

	// genLateLimit voids a round whose generator sent more than 1% of
	// the ops it was free for this late.
	genLateLimit = 25 * time.Millisecond

	// runLimit bounds one run; the daemons are killed when it expires.
	runLimit = 170 * time.Second
)

// nOps is a window's op count: share of seconds at rate.
func nOps(rate, share, seconds float64) int {
	return max(1, int(rate*share*seconds))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	bin := flag.String("w5d", "", "path to the built w5d binary")
	workdir := flag.String("workdir", "", "scratch directory for audit spill dirs")
	name := flag.String("workload", "", "workload: browse or read-write")
	seed := flag.Int64("seed", 1, "trace seed")
	seconds := flag.Float64("seconds", 30, "measurement budget of one run")
	trace := flag.Int("trace", 0, "1 = per-layer traced run")
	flag.Parse()

	i := slices.IndexFunc(specs, func(s spec) bool { return s.name == *name })
	if i < 0 || *bin == "" || *workdir == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -w5d, -workdir, --seconds > 0 and --workload browse|read-write")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		stopAll()
		os.Exit(3)
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		fmt.Fprintln(os.Stderr, "perfbench:", <-sigs)
		stopAll()
		os.Exit(4)
	}()

	b := bench{spec: specs[i], seed: *seed, seconds: *seconds, bin: *bin, tmp: *workdir}
	var res *result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench is one run of one workload.
type bench struct {
	spec
	seed    int64
	seconds float64
	bin     string
	tmp     string
}

// trace returns one slice of ops per window size. The draws come from
// workload.Trace with a fixed seed, so every run of a workload sends the
// same multiset of ops in each window, and --seed shuffles the order
// within each window. On a 2-vCPU VM, with loadgen's default mix on 128
// users, varying the draws themselves moved the closed-loop rate over
// 3000 ops by about 20% between seeds, with how many audit pulls came
// from rarely active users (whose pulls scan the whole trail); varying
// only the order moved it by about 4%.
func (b *bench) trace(mix []workload.MixEntry, sizes ...int) [][]workload.Op {
	total := 0
	for _, n := range sizes {
		total += n
	}
	ops := workload.Trace(workload.TraceConfig{Seed: drawSeed, Users: b.users, Mix: mix}, total)
	r := rand.New(rand.NewSource(b.seed))
	out := make([][]workload.Op, len(sizes))
	for i, n := range sizes {
		w := ops[:n:n]
		ops = ops[n:]
		r.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
		out[i] = w
	}
	return out
}

// daemonArgs are the flags every benchmark daemon runs with, besides
// its address and spill directory: the dev population, no cumulative
// app budgets (an open loop exhausts them by design) and no login
// limiter (the mixes churn logins on purpose).
func (b *bench) daemonArgs() []string {
	return []string{"-dev-seed", strconv.Itoa(b.users), "-disable-quotas", "-login-rate", "0"}
}

// setup starts a fresh daemon and logs every seeded user in; the
// returned duration runs from exec to the last login.
func (b *bench) setup(env []string) (*daemon, []string, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(b.bin, b.daemonArgs(), env, b.tmp)
	if err != nil {
		return nil, nil, 0, err
	}
	cookies, err := loginAll(d.addr, workload.Users(b.users))
	if err != nil {
		d.stop()
		return nil, nil, 0, fmt.Errorf("%w (%v)", err, d.alive())
	}
	return d, cookies, time.Since(t0), nil
}

// loginAll logs every user in over conns connections and returns the
// session cookies, indexed like users.
func loginAll(addr string, users []string) ([]string, error) {
	cookies := make([]string, len(users))
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			cn, err := dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cn.close()
			r := renderer{host: addr}
			for i := c; i < len(users); i += conns {
				rep, err := cn.exchange(r.login(users[i]))
				if err == nil && (rep.status != 200 || rep.cookie == "") {
					err = fmt.Errorf("status %d, cookie %q", rep.status, rep.cookie)
				}
				if err != nil {
					errs <- fmt.Errorf("login %s: %w", users[i], err)
					return
				}
				cookies[i] = rep.cookie
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return cookies, first
}

// session starts a fresh daemon, logs every user in, warms it up with
// a closed loop over warm, runs fn against it and stops it. It returns
// the set-up time and the daemon's peak RSS at the end.
func (b *bench) session(t *tally, ck *checker, warm []workload.Op, env []string,
	fn func(p *pool, d *daemon, warm *window) error) (time.Duration, float64, error) {
	d, cookies, setup, err := b.setup(env)
	if err != nil {
		return 0, 0, err
	}
	defer d.stop()
	p, err := newPool(d.addr, workload.Users(b.users), cookies, ck, t)
	if err != nil {
		return 0, 0, err
	}
	defer p.close()
	w := p.closedLoop("warm-up", warm)
	w.report()
	if err := fn(p, d, w); err != nil {
		return 0, 0, err
	}
	if err := d.alive(); err != nil {
		return 0, 0, err
	}
	rss, err := peakRSS(d.pid())
	return setup, rss, err
}

// endToEnd is the untraced run: every end-to-end metric. Each of its
// `steps` daemons serves a closed-loop warm-up and one step of the
// sustained search; the first `rounds` of them then run a round of lo,
// hi and peak windows over the same ops, so every round starts from the
// same state. Other tenants of a shared machine only ever slow a
// window, so peak_rps reports the best round and a search step passes
// if either of its two windows does. Latencies pool the rounds.
func (b *bench) endToEnd() (*result, error) {
	sec := b.seconds
	nWarm, nStep := nOps(b.capacity, warmShare, sec), nOps(b.capacity, b.stepShare, sec)
	nLo, nHi, nPeak := nOps(b.lo, b.loShare, sec), nOps(b.hi, b.hiShare, sec), nOps(b.capacity, b.peakShare, sec)
	ws := b.trace(b.mix, nWarm, nStep, nLo, nHi, nPeak)
	warm, stepOps, loOps, hiOps, peakOps := ws[0], ws[1], ws[2], ws[3], ws[4]

	users := workload.Users(b.users)
	ck, t := newChecker(users), &tally{}
	var setups []time.Duration
	var rss float64
	var los, his, peaks []*window
	var wrWins, auWins []*window
	// sustained_rps bisects between 0 and 1.5x the first warm-up's rate.
	lower, upper := 0.0, 0.0
	for i := 0; i < steps; i++ {
		setup, r, err := b.session(t, ck, warm, nil, func(p *pool, _ *daemon, w *window) error {
			if upper == 0 {
				upper = 1.5 * w.rps()
			}
			rate, ok := (lower+upper)/2, false
			for try := 0; try < 2; try++ {
				pass, why := p.openLoop("step", stepOps, rate).sustains()
				fmt.Fprintf(os.Stderr, "  step %d at %.0f req/s: pass=%v %s\n", i, rate, pass, why)
				ok = ok || pass
			}
			if ok {
				lower = rate
			} else {
				upper = rate
			}
			if i >= rounds {
				return nil
			}
			lo := p.openLoop("lo", loOps, b.lo)
			hi := p.openLoop("hi", hiOps, b.hi)
			peak := p.closedLoop("peak", peakOps)
			lo.report()
			hi.report()
			peak.report()
			if i == rounds-1 {
				wrWins, auWins = b.probes(p, hiOps)
			}
			if w := lateGen(lo, hi); w != nil {
				fmt.Fprintf(os.Stderr, "  round %d void: generator p99 lateness %v in the %s window exceeds %v\n",
					i, percentile(w.genLate(), 0.99), w.name, genLateLimit)
				return nil
			}
			los, his, peaks = append(los, lo), append(his, hi), append(peaks, peak)
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups, rss = append(setups, setup), max(rss, r)
	}
	if len(los) == 0 {
		return nil, fmt.Errorf("run void: the generator ran late in every round")
	}
	fmt.Fprintf(os.Stderr, "  setups %v\n", setups)
	if wrWins == nil {
		wrWins = his
	}
	if auWins == nil {
		auWins = his
	}
	m := map[string]metric{
		"setup_s":       {percentile(setups, 0.5).Seconds(), "s"},
		"peak_rss_mb":   {rss, "MiB"},
		"peak_rps":      {bestRPS(peaks), "1/s"},
		"sustained_rps": {lower, "1/s"},
		"lo.p50_ms":     {pooled(los, 0.5), "ms"},
		"hi.p50_ms":     {pooled(his, 0.5), "ms"},
		"write.p50_ms":  {pooled(wrWins, 0.5, workload.ScenarioPhotoWrite), "ms"},
		"audit.p50_ms":  {pooled(auWins, 0.5, workload.ScenarioAuditPull, auditHead), "ms"},
	}
	return t.result(m), nil
}

// probes measures write and audit-pull latency for a workload whose hi
// windows hold fewer than minClassOps ops of the class over all rounds;
// it returns nil for a class they cover. Writes come from the
// workload's own viewers. A pull for 25 events scans the trail from its
// start until it finds them, which on these populations takes up to
// seconds for most users; the probe instead asks u0000 for their first
// event, which sits at the head of the trail, so it times the audit
// endpoint's fixed path. Both probes run far below their class's
// capacity, so no op queues behind another.
func (b *bench) probes(p *pool, hiOps []workload.Op) (wr, au []*window) {
	if rounds*countOps(hiOps, workload.ScenarioPhotoWrite) < minClassOps {
		writes := b.trace([]workload.MixEntry{{Scenario: workload.ScenarioPhotoWrite, Weight: 1}}, writeProbeOps)[0]
		w := p.openLoop("probe", writes, writeProbeRate)
		w.report()
		wr = []*window{w}
	}
	if rounds*countOps(hiOps, workload.ScenarioAuditPull) < minClassOps {
		pulls := make([]workload.Op, auditProbeOps)
		for i := range pulls {
			pulls[i] = workload.Op{Scenario: auditHead}
		}
		w := p.openLoop("probe", pulls, auditProbeRate)
		w.report()
		au = []*window{w}
	}
	return wr, au
}

// pooled returns the q-quantile, in ms, of the latencies of scens' ops
// (all ops if none) across the windows.
func pooled(ws []*window, q float64, scens ...string) float64 {
	var l []time.Duration
	for _, w := range ws {
		l = append(l, w.lats(scens...)...)
	}
	return ms(percentile(l, q))
}

func countOps(ops []workload.Op, scen string) int {
	n := 0
	for _, op := range ops {
		if op.Scenario == scen {
			n++
		}
	}
	return n
}

// lateGen returns the first window whose generator ran late, if any.
func lateGen(ws ...*window) *window {
	for _, w := range ws {
		if percentile(w.genLate(), 0.99) > genLateLimit {
			return w
		}
	}
	return nil
}

// bestRPS returns the highest rate of the windows.
func bestRPS(ws []*window) float64 {
	v := 0.0
	for _, w := range ws {
		v = max(v, w.rps())
	}
	return v
}

// result wraps metrics with the run's op accounting. The run is
// correct only if every reply was.
func (t *tally) result(m map[string]metric) *result {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d failed_ratio=%g\n", t.ops, t.failed, float64(t.failed)/float64(max(t.ops, 1)))
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "  first failure:", t.firstErr)
	}
	return &result{Correct: t.failed == 0, Attempted: t.ops, Failed: t.failed, Metrics: m}
}
