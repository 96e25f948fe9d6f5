package main

// The traced run. End-to-end numbers come from the untraced run; this
// one answers where the time went. It has two parts:
//
//  1. A fresh w5d started with GODEBUG=gctrace=1, driven as in the
//     untraced run, for what can only be seen from outside the daemon:
//     its CPU and GC cycles per op, and the generator's own lateness
//     and CPU.
//  2. An in-process provider wired as cmd/w5d wires it, serving its
//     gateway on a real socket behind an http.Handler wrapper. A closed
//     loop over the trace records client.exchange and gateway.serve
//     spans, sharing the op's index as request ID, and the deltas of
//     the layers' public counters. An in-process pass over the same op
//     indices then times the calls the gateway's handlers make, with
//     each installed app wrapped so core.App.Handle is a child span of
//     core.Provider.Invoke.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"w5/internal/apps"
	"w5/internal/audit"
	"w5/internal/core"
	"w5/internal/declass"
	"w5/internal/gateway"
	"w5/internal/htmlsafe"
	"w5/internal/loadgen"
	"w5/internal/rank"
	"w5/internal/workload"
)

// span is one timed call. Spans of one op share req; parent indexes the
// slice the span lives in (-1 for a root).
type span struct {
	name       string
	req        int
	parent     int
	start, end time.Duration // since the trace's base time
}

func (s span) dur() time.Duration { return s.end - s.start }

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) time.Duration {
	iv := make([]span, 0, len(kids))
	for _, k := range kids {
		k.start, k.end = max(k.start, s.start), min(k.end, s.end)
		if k.end > k.start {
			iv = append(iv, k)
		}
	}
	slices.SortFunc(iv, func(a, b span) int { return int(a.start - b.start) })
	var total, reach time.Duration
	reach = s.start
	for _, k := range iv {
		if k.start > reach {
			reach = k.start
		}
		if k.end > reach {
			total += k.end - reach
			reach = k.end
		}
	}
	return total
}

// selfTime is a span's duration minus the time its children cover.
func selfTime(s span, kids []span) time.Duration { return s.dur() - covered(s, kids) }

// children groups spans by parent index.
func children(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		if s.parent >= 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// tracer records nested spans from one goroutine.
type tracer struct {
	base  time.Time
	req   int
	spans []span
	stack []int
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: time.Since(t.base)})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].end = time.Since(t.base)
	t.stack = t.stack[:len(t.stack)-1]
}

// timedApp decorates an installed app: while the in-process pass runs,
// each Handle is a span named apps.<app>.handle.
type timedApp struct {
	core.App
	span string
	tr   *atomic.Pointer[tracer]
}

func (a timedApp) Handle(env *core.AppEnv, req core.AppRequest) (core.AppResponse, error) {
	t := a.tr.Load()
	if t == nil {
		return a.App.Handle(env, req)
	}
	i := t.begin(a.span)
	defer t.end(i)
	return a.App.Handle(env, req)
}

// fixture is an in-process provider and gateway, wired as cmd/w5d wires
// them with the benchmark's daemon flags, serving on a real socket.
type fixture struct {
	p     *core.Provider
	gw    *gateway.Gateway
	srv   *http.Server
	addr  string
	spill string
	tr    atomic.Pointer[tracer]

	base    time.Time
	tracing atomic.Bool
	mu      sync.Mutex
	serve   []span // gateway.serve spans
}

func newFixture(users int, tmp string) (*fixture, error) {
	spill, err := os.MkdirTemp(tmp, "audit-spill-")
	if err != nil {
		return nil, err
	}
	alog, err := audit.Open(audit.Options{RingSegments: 64, SpillDir: spill})
	if err != nil {
		return nil, err
	}
	f := &fixture{spill: spill, base: time.Now()}
	f.p = core.NewProvider(core.Config{Name: "w5", Enforce: true, AuditLog: alog, DisableQuotas: true})
	f.p.Declass.SetVerdictCacheEntries(declass.DefaultVerdictCacheEntries)
	for _, app := range []core.App{
		apps.Social{}, apps.PhotoShare{}, apps.Blog{},
		apps.Recommend{}, apps.Dating{}, apps.Mashup{},
	} {
		f.install(app)
	}
	if err := apps.InstallWVMTwins(f.p); err != nil {
		return nil, err
	}
	// Reinstall each twin, decorated, from the program the registry
	// published for it.
	for _, t := range apps.WVMTwins() {
		v, err := f.p.Registry.Get(t.Name+"-wvm", "1.0")
		if err != nil {
			return nil, err
		}
		comp, err := f.p.Programs.Get(v.Hash, v.Program)
		if err != nil {
			return nil, err
		}
		f.install(&core.WVMApp{AppName: v.Module, Prog: comp.Program(), MemSize: apps.WVMTwinMemSize})
	}
	if err := loadgen.SeedProvider(f.p, users, 1); err != nil {
		return nil, err
	}
	f.gw = gateway.New(f.p, gateway.Options{
		FilterHTML: true, SanitizeCacheEntries: 1024, SanitizeCacheBytes: 16 << 20,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.addr = ln.Addr().String()
	f.srv = &http.Server{Handler: f, ConnContext: f.gw.ConnContext}
	go f.srv.Serve(ln)
	return f, nil
}

func (f *fixture) install(app core.App) {
	f.p.InstallApp(timedApp{App: app, span: "apps." + app.Name() + ".handle", tr: &f.tr})
}

func (f *fixture) close() {
	f.srv.Close()
	f.p.Log.Close()
	os.RemoveAll(f.spill)
}

// ServeHTTP wraps the gateway with the gateway.serve span.
func (f *fixture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !f.tracing.Load() {
		f.gw.ServeHTTP(w, r)
		return
	}
	start := time.Since(f.base)
	f.gw.ServeHTTP(w, r)
	s := span{name: "gateway.serve", parent: -1, start: start, end: time.Since(f.base)}
	var err error
	if s.req, err = strconv.Atoi(r.Header.Get("X-Bench-Op")); err != nil {
		return
	}
	f.mu.Lock()
	f.serve = append(f.serve, s)
	f.mu.Unlock()
}

// counters is a snapshot of the layers' public counters.
type counters struct {
	gw                 gateway.Stats
	audit              audit.Stats
	dHits, dMiss, dFls uint64
	compiles           uint64
}

func (f *fixture) counters() counters {
	c := counters{gw: f.gw.Stats(), audit: f.p.Log.Stats(), compiles: f.p.Programs.Compiles()}
	c.dHits, c.dMiss, c.dFls = f.p.Declass.CacheStats()
	return c
}

// traced runs both parts and reports every per-layer metric.
func (b *bench) traced() (*result, error) {
	sec := b.seconds
	nWarm, nLo, nPeak := nOps(b.capacity, warmShare, sec), nOps(b.lo, b.loShare, sec), nOps(b.capacity, 2*b.peakShare, sec)
	ws := b.trace(b.mix, nWarm, nLo, nPeak)
	warm, lo, peak := ws[0], ws[1], ws[2]
	m := map[string]metric{}
	users := workload.Users(b.users)

	// Part 1: the daemon, seen from outside.
	ck, t := newChecker(users), &tally{}
	_, _, err := b.session(t, ck, warm, []string{"GODEBUG=gctrace=1"}, func(p *pool, d *daemon, _ *window) error {
		loW := p.openLoop("lo", lo, b.lo)
		loW.report()
		gl := loW.genLate()
		m["gen.late_p50_ms"] = metric{ms(percentile(gl, 0.5)), "ms"}
		m["gen.late_p99_ms"] = metric{ms(percentile(gl, 0.99)), "ms"}
		gc0 := d.gcCycles.Load()
		dcpu0, err1 := cpuTime(d.pid())
		gcpu0, err2 := cpuTime("self")
		p.closedLoop("peak", peak).report()
		dcpu1, err3 := cpuTime(d.pid())
		gcpu1, err4 := cpuTime("self")
		n := float64(len(peak))
		m["gen.cpu_us_per_op"] = metric{us(gcpu1-gcpu0) / n, "us"}
		m["w5d.cpu_us_per_op"] = metric{us(dcpu1-dcpu0) / n, "us"}
		m["w5d.gc_cycles_per_kop"] = metric{float64(d.gcCycles.Load()-gc0) / n * 1000, "count"}
		return firstErr(err1, err2, err3, err4)
	})
	if err != nil {
		return nil, err
	}

	// Part 2: the in-process provider, traced.
	f, err := newFixture(b.users, b.tmp)
	if err != nil {
		return nil, err
	}
	defer f.close()
	cookies, err := loginAll(f.addr, users)
	if err != nil {
		return nil, err
	}
	fp, err := newPool(f.addr, users, cookies, ck, t)
	if err != nil {
		return nil, err
	}
	defer fp.close()
	fp.closedLoop("warm-up", warm)
	// Untraced, traced, untraced: the middle half of the ops is traced,
	// so a drift in cost along the trace weighs on both rates alike.
	q := len(peak) / 4
	u1 := fp.closedLoop("untraced", peak[:q])
	tracedOps := peak[q : 3*q]

	var cmu sync.Mutex
	var client []span
	fp.traced = func(id int, start, end time.Time) {
		cmu.Lock()
		client = append(client, span{name: "client.exchange", req: id, parent: -1,
			start: start.Sub(f.base), end: end.Sub(f.base)})
		cmu.Unlock()
	}
	f.tracing.Store(true)
	c0 := f.counters()
	tw := fp.closedLoop("traced", tracedOps)
	c1 := f.counters()
	f.tracing.Store(false)
	fp.traced = nil
	u2 := fp.closedLoop("untraced", peak[3*q:4*q])
	u1.report()
	tw.report()
	u2.report()
	m["trace.overhead_ratio"] = metric{tw.rps() / (float64(2*q) / (u1.elapsed + u2.elapsed).Seconds()), "ratio"}

	// The in-process pass: warm its own caches on the warm-up ops, then
	// time the traced ops under the same IDs.
	rp := newReplayer(f, users, ck, t)
	for k, op := range warm {
		rp.do(op, -1-k)
	}
	tr := &tracer{base: f.base}
	f.tr.Store(tr)
	for k, op := range slices.Concat(tracedOps, b.layerProbes(tracedOps)) {
		tr.req = k
		rp.do(op, k)
	}
	f.tr.Store(nil)
	f.mu.Lock()
	serve := f.serve
	f.mu.Unlock()
	layerMetrics(m, tr.spans, client, serve, rp, c0, c1, len(tracedOps))

	return t.result(m), nil
}

// layerProbes returns, for a workload whose traced ops hold no logins
// or no audit pulls, probe ops that reach those layers in the
// in-process pass: logins by the workload's own viewers, and the e2e
// probe's pulls of u0000's first audit event (see probes).
func (b *bench) layerProbes(ops []workload.Op) []workload.Op {
	var out []workload.Op
	if countOps(ops, workload.ScenarioLogin) == 0 {
		out = b.trace([]workload.MixEntry{{Scenario: workload.ScenarioLogin, Weight: 1}}, loginProbeOps)[0]
	}
	if countOps(ops, workload.ScenarioAuditPull) == 0 {
		for i := 0; i < auditProbeOps; i++ {
			out = append(out, workload.Op{Scenario: auditHead})
		}
	}
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayer makes, in process, the calls the gateway's handlers make for
// each op, under the tracer's spans.
type replayer struct {
	f       *fixture
	users   []string
	accts   []*core.User
	ck      *checker
	san     *htmlsafe.Cache
	pol     htmlsafe.Policy
	fp      uint64
	rank    *rank.Index
	buf     []byte
	t       *tally
	visited int // audit events the pulls' queries visited
	shown   int // audit events the pulls returned
	pulls   int
}

func newReplayer(f *fixture, users []string, ck *checker, t *tally) *replayer {
	r := &replayer{f: f, users: users, ck: ck, t: t, san: htmlsafe.NewCache(1024, 16<<20), rank: rank.NewIndex(rank.Options{})}
	r.fp = r.pol.Fingerprint()
	for _, u := range users {
		acct, _ := f.p.GetUser(u)
		r.accts = append(r.accts, acct)
	}
	return r
}

// do replays one op; spans record only while the tracer is installed.
func (r *replayer) do(op workload.Op, id int) {
	t := r.f.tr.Load()
	if t == nil {
		t = &tracer{base: r.f.base} // untimed warm-up; spans dropped below
		defer func() { t.spans = nil }()
	}
	p, viewer := r.f.p, r.users[op.Viewer]
	rep := reply{status: 200}
	var err error
	root := t.begin("handler")
	switch op.Scenario {
	case workload.ScenarioLogin:
		i := t.begin("core.authenticate")
		if p.Authenticate(viewer, loadgen.SeedPassword) {
			rep.cookie = "ok"
		}
		t.end(i)
	case workload.ScenarioAuditPull, auditHead:
		limit := 25
		if op.Scenario == auditHead {
			limit = 1
		}
		i := t.begin("audit.events")
		r.buf = r.buf[:0]
		shown := 0
		err = p.Log.Events(1, func(e audit.Event) bool {
			r.visited++
			if !auditConcerns(e, viewer) {
				return true
			}
			r.buf = append(append(r.buf, e.String()...), '\n')
			shown++
			return shown < limit
		})
		t.end(i)
		r.shown += shown
		r.pulls++
		rep.body = r.buf
	case workload.ScenarioMarketSearch:
		i := t.begin("registry.search")
		matches := p.Registry.View().Search(marketQueries[op.Item%len(marketQueries)])
		t.end(i)
		i = t.begin("rank.view")
		ranked := r.rank.View(p.Registry)
		t.end(i)
		r.buf = r.buf[:0]
		for _, v := range matches {
			r.buf = fmt.Appendf(r.buf, "%s@%s rank=%f\n", v.Module, v.Version, ranked.Scores[v.Module])
		}
		rep.body = r.buf
	default:
		app, path, method, params := appCall(op, r.users)
		i := t.begin("core.invoke")
		inv, ierr := p.Invoke(app, core.AppRequest{Viewer: viewer, Owner: r.users[op.Owner], Path: path, Method: method, Params: params})
		t.end(i)
		if err = ierr; err != nil {
			break
		}
		i = t.begin("core.export")
		body, eerr := p.ExportCheckFor(inv, r.accts[op.Viewer])
		t.end(i)
		if err = eerr; err != nil {
			break
		}
		rep.status, rep.body = inv.Response.Status, body
		if strings.HasPrefix(inv.Response.ContentType, "text/html") {
			i = t.begin("htmlsafe.sanitize")
			clean, _, hit := r.san.Sanitize(r.buf[:0], body, r.pol, r.fp)
			t.end(i)
			rep.body = clean
			if !hit && len(clean) > 0 && &clean[0] != &body[0] {
				r.buf = clean[:0]
			}
		}
	}
	t.end(root)
	if err == nil {
		err = r.ck.check(op, rep)
	}
	if err != nil {
		err = fmt.Errorf("in-process %s op %d: %w", op.Scenario, id, err)
	}
	r.t.add(1, err)
}

// appCall maps an app op to the invocation the gateway's /app/ handler
// makes for it.
func appCall(op workload.Op, users []string) (app, path, method string, params map[string]string) {
	switch op.Scenario {
	case workload.ScenarioSocialRead:
		return "social", "/profile", "GET", nil
	case workload.ScenarioWVMRead:
		return "social-wvm", "/profile", "GET", nil
	case workload.ScenarioTableQuery:
		return "blog", "/", "GET", nil
	case workload.ScenarioPhotoWrite:
		return "photoshare", "/upload", "POST", map[string]string{"name": photoName(op), "data": photoPayload}
	}
	panic("perfbench: no app call for " + op.Scenario)
}

// auditConcerns mirrors the gateway's /audit filter: the events that
// concern user.
func auditConcerns(e audit.Event, user string) bool {
	return e.Actor == user || e.Subject == user ||
		e.Actor == "user:"+user || e.Subject == "viewer:"+user ||
		strings.HasPrefix(e.Subject, "/home/"+user+"/")
}

// layerMetrics turns the spans and counter deltas into per-layer
// metrics. ops is the number of traced ops.
func layerMetrics(m map[string]metric, inproc, client, serve []span, rp *replayer, c0, c1 counters, ops int) {
	kids := children(inproc)
	durs := map[string][]time.Duration{}
	selfs := map[string][]time.Duration{}
	roots := map[int]int{} // request ID -> index of its handler span
	for i, s := range inproc {
		durs[s.name] = append(durs[s.name], s.dur())
		selfs[s.name] = append(selfs[s.name], selfTime(s, kids[i]))
		if s.parent < 0 {
			roots[s.req] = i
		}
	}
	p50 := func(xs []time.Duration) float64 { return us(percentile(xs, 0.5)) }
	p99 := func(xs []time.Duration) float64 { return us(percentile(xs, 0.99)) }

	// gateway.serve's children are the calls the in-process pass made
	// for the same op, so its self time is its duration minus the time
	// those calls covered there. client.exchange's child is
	// gateway.serve; its self time is the loopback and HTTP transport.
	serveByReq := map[int]span{}
	var serveSelf, transport []time.Duration
	for _, s := range serve {
		serveByReq[s.req] = s
		if i, ok := roots[s.req]; ok {
			serveSelf = append(serveSelf, s.dur()-covered(inproc[i], kids[i]))
		}
	}
	for _, c := range client {
		if s, ok := serveByReq[c.req]; ok {
			transport = append(transport, selfTime(c, []span{s}))
		}
	}
	m["gateway.serve.self.p50_us"] = metric{p50(serveSelf), "us"}
	m["gateway.transport.p50_us"] = metric{p50(transport), "us"}
	warm, cold := c1.gw.WarmHits-c0.gw.WarmHits, c1.gw.ColdResolves-c0.gw.ColdResolves
	m["gateway.session.warm_ratio"] = metric{ratio(warm, warm+cold), "ratio"}

	m["core.invoke.self.p50_us"] = metric{p50(selfs["core.invoke"]), "us"}
	m["core.export.p50_us"] = metric{p50(durs["core.export"]), "us"}
	m["core.export.p99_us"] = metric{p99(durs["core.export"]), "us"}
	m["core.authenticate.p50_us"] = metric{p50(durs["core.authenticate"]), "us"}
	for _, app := range []string{"social", "social-wvm", "blog", "photoshare"} {
		m["apps."+app+".handle.p50_us"] = metric{p50(durs["apps."+app+".handle"]), "us"}
	}
	m["wvm.compiles"] = metric{float64(c1.compiles - c0.compiles), "count"}

	hits, miss := c1.dHits-c0.dHits, c1.dMiss-c0.dMiss
	m["declass.cache.hit_ratio"] = metric{ratio(hits, hits+miss), "ratio"}
	m["declass.cache.flushes_per_kop"] = metric{perKop(c1.dFls-c0.dFls, ops), "count"}

	sc0, sc1 := c0.gw.SanitizeCache, c1.gw.SanitizeCache
	m["htmlsafe.sanitize.p50_us"] = metric{p50(durs["htmlsafe.sanitize"]), "us"}
	m["htmlsafe.cache.hit_ratio"] = metric{ratio(sc1.Hits-sc0.Hits, sc1.Hits-sc0.Hits+sc1.Misses-sc0.Misses), "ratio"}
	m["htmlsafe.cache.evictions_per_kop"] = metric{perKop(sc1.Evictions-sc0.Evictions, ops), "count"}

	m["audit.events.p50_us"] = metric{p50(durs["audit.events"]), "us"}
	m["audit.events.p99_us"] = metric{p99(durs["audit.events"]), "us"}
	m["audit.pull.visited_per_pull"] = metric{float64(rp.visited) / float64(max(rp.pulls, 1)), "count"}
	m["audit.pull.useful_ratio"] = metric{ratio(uint64(rp.shown), uint64(rp.visited)), "ratio"}
	m["audit.appended_per_op"] = metric{float64(c1.audit.Appended-c0.audit.Appended) / float64(ops), "count"}
	m["audit.spilled_segments"] = metric{float64(c1.audit.SpilledSegs - c0.audit.SpilledSegs), "count"}
	m["audit.dropped_events"] = metric{float64(c1.audit.DroppedEvents - c0.audit.DroppedEvents), "count"}

	m["registry.search.p50_us"] = metric{p50(durs["registry.search"]), "us"}
	m["rank.view.p50_us"] = metric{p50(durs["rank.view"]), "us"}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perKop(n uint64, ops int) float64 { return float64(n) / float64(ops) * 1000 }
