package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"w5/internal/workload"
)

// rec is one op's outcome. Latencies are kept exactly, not bucketed, so
// reported percentiles carry every digit the clock gives.
type rec struct {
	scen string
	ok   bool
	// lat runs from the op's due time (open loop) or its send time
	// (closed loop) to the end of the reply.
	lat time.Duration
	// lag is send time minus due time (open loop only).
	lag time.Duration
	// late is the generator's own lateness: send time minus due time
	// when a connection was free at the due time; -1 when every
	// connection was still busy.
	late time.Duration
}

// client is one connection with its own request buffer.
type client struct {
	c *conn
	r renderer
}

// pool drives ops over a fixed set of keep-alive connections and checks
// every reply.
type pool struct {
	addr    string
	clients []*client
	ck      *checker
	t       *tally
	// traced, when set, is called after each op with its id and the
	// exchange's start and end (traced in-process runs only).
	traced func(id int, start, end time.Time)
}

// tally counts a run's ops and failures across its pools.
type tally struct {
	mu       sync.Mutex
	ops      int
	failed   int
	firstErr error
}

func (t *tally) add(ops int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops += ops
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func newPool(addr string, users, cookies []string, ck *checker, t *tally) (*pool, error) {
	p := &pool{addr: addr, ck: ck, t: t}
	for i := 0; i < conns; i++ {
		c, err := dial(addr)
		if err != nil {
			p.close()
			return nil, err
		}
		p.clients = append(p.clients, &client{c: c, r: renderer{host: addr, users: users, cookies: cookies}})
	}
	return p, nil
}

func (p *pool) close() {
	for _, cl := range p.clients {
		if cl.c != nil {
			cl.c.close()
		}
	}
}

// do sends op (id is -1 unless traced) and reports whether its reply
// was correct. A transport error drops and redials the connection.
func (p *pool) do(cl *client, op workload.Op, id int) bool {
	var err error
	if cl.c == nil {
		cl.c, err = dial(p.addr)
	}
	if err == nil {
		var r reply
		start := time.Now()
		r, err = cl.c.exchange(cl.r.render(op, id))
		if p.traced != nil {
			p.traced(id, start, time.Now())
		}
		if err != nil {
			cl.c.close()
			cl.c = nil
		} else {
			err = p.ck.check(op, r)
		}
	}
	if err != nil {
		err = fmt.Errorf("%s op (viewer %d, owner %d): %w", op.Scenario, op.Viewer, op.Owner, err)
	}
	p.t.add(1, err)
	return err == nil
}

// window is the record of one measured phase.
type window struct {
	name    string
	rate    float64 // offered rate; 0 for a closed loop
	recs    []rec
	elapsed time.Duration
}

// openLoop sends ops on a fixed schedule, op k due at t0 + k/rate,
// whatever the server does. The connections share the schedule as a
// pool: each takes the next op as soon as it is free and sends it at its
// due time, so an op waits only when every connection is busy, as
// requests of independent users would.
func (p *pool) openLoop(name string, ops []workload.Op, rate float64) *window {
	w := &window{name: name, rate: rate, recs: make([]rec, len(ops))}
	gap := float64(time.Second) / rate
	t0 := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range p.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				due := t0.Add(time.Duration(float64(k) * gap))
				now := time.Now()
				late := time.Duration(-1)
				if d := due.Sub(now); d >= 0 {
					time.Sleep(d)
					now = time.Now()
					late = now.Sub(due)
				}
				ok := p.do(cl, ops[k], p.id(k))
				w.recs[k] = rec{scen: ops[k].Scenario, ok: ok, lat: time.Since(due), lag: now.Sub(due), late: late}
			}
		}(cl)
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	return w
}

// closedLoop sends every op exactly once; each connection takes the next
// unsent op as soon as its previous reply has arrived.
func (p *pool) closedLoop(name string, ops []workload.Op) *window {
	w := &window{name: name, recs: make([]rec, len(ops))}
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, cl := range p.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				start := time.Now()
				ok := p.do(cl, ops[k], p.id(k))
				w.recs[k] = rec{scen: ops[k].Scenario, ok: ok, lat: time.Since(start), late: -1}
			}
		}(cl)
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	return w
}

// id is the request ID op k of a window is sent with: k when traced,
// else -1 (none).
func (p *pool) id(k int) int {
	if p.traced == nil {
		return -1
	}
	return k
}

// rps is completed ops per second of the window.
func (w *window) rps() float64 { return float64(len(w.recs)) / w.elapsed.Seconds() }

// lats returns the latencies of ops whose scenario is in scens (all
// ops when scens is empty).
func (w *window) lats(scens ...string) []time.Duration {
	var out []time.Duration
	for _, r := range w.recs {
		if len(scens) == 0 || slices.Contains(scens, r.scen) {
			out = append(out, r.lat)
		}
	}
	return out
}

// genLate returns the generator's lateness samples.
func (w *window) genLate() []time.Duration {
	var out []time.Duration
	for _, r := range w.recs {
		if r.late >= 0 {
			out = append(out, r.late)
		}
	}
	return out
}

func (w *window) failed() int {
	n := 0
	for _, r := range w.recs {
		if !r.ok {
			n++
		}
	}
	return n
}

// SLO for sustained_rps.
const (
	sloP99       = 250 * time.Millisecond
	sloFailRatio = 0.01
	// backlogGrowth bounds how far the send lag may climb through a
	// window. A rate above capacity grows the lag steadily; a slow op
	// or a stall raises it only for a while.
	backlogGrowth = 10 * time.Millisecond
)

// sustains reports whether an open-loop window met the SLO without a
// growing backlog, and if not, why. The backlog grew if the median send
// lag rose through all four quarters of the window, by more than
// backlogGrowth in all.
func (w *window) sustains() (bool, string) {
	if f := float64(w.failed()) / float64(len(w.recs)); f > sloFailRatio {
		return false, fmt.Sprintf("failed ratio %.3f", f)
	}
	if p99 := percentile(w.lats(), 0.99); p99 > sloP99 {
		return false, fmt.Sprintf("p99 %v", p99)
	}
	var lag [4]time.Duration
	for i := range lag {
		q := w.recs[i*len(w.recs)/4 : (i+1)*len(w.recs)/4]
		xs := make([]time.Duration, len(q))
		for j, r := range q {
			xs[j] = r.lag
		}
		lag[i] = percentile(xs, 0.5)
	}
	if lag[0] < lag[1] && lag[1] < lag[2] && lag[2] < lag[3] && lag[3]-lag[0] > backlogGrowth {
		return false, fmt.Sprintf("backlog grew %v", lag)
	}
	return true, ""
}

// percentile returns the nearest-rank q-quantile of xs (0 if empty).
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// report prints a window's per-scenario latencies to stderr.
func (w *window) report() {
	fmt.Fprintf(os.Stderr, "  %-10s n=%-6d %8.1f req/s", w.name, len(w.recs), w.rps())
	if w.rate > 0 {
		gl := w.genLate()
		fmt.Fprintf(os.Stderr, " (offered %.0f) gen-late p50=%.3fms p99=%.3fms",
			w.rate, ms(percentile(gl, 0.5)), ms(percentile(gl, 0.99)))
	}
	fmt.Fprintf(os.Stderr, " failed=%d\n", w.failed())
	seen := map[string]bool{}
	for _, r := range w.recs {
		if seen[r.scen] {
			continue
		}
		seen[r.scen] = true
		l := w.lats(r.scen)
		fmt.Fprintf(os.Stderr, "    %-14s n=%-6d p50=%8.3fms p99=%8.3fms\n",
			r.scen, len(l), ms(percentile(l, 0.5)), ms(percentile(l, 0.99)))
	}
}
