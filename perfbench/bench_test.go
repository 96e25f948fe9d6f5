package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"w5/internal/workload"
)

func TestTraceDeterministicBySeed(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			users := workload.Users(s.users)
			render := func(seed int64) ([]workload.Op, []byte) {
				b := bench{spec: s, seed: seed}
				ops := b.trace(s.mix, 2000)[0]
				r := renderer{host: "h", users: users, cookies: users}
				var all []byte
				for i, op := range ops {
					all = append(all, r.render(op, i)...)
				}
				return ops, all
			}
			ops1, req1 := render(7)
			ops2, req2 := render(7)
			if !reflect.DeepEqual(ops1, ops2) || !bytes.Equal(req1, req2) {
				t.Fatal("same seed gave different traces")
			}
			ops3, _ := render(8)
			if reflect.DeepEqual(ops1, ops3) {
				t.Fatal("different seeds gave the same trace")
			}
			for _, op := range ops1 {
				if !slices.ContainsFunc(s.mix, func(m workload.MixEntry) bool { return m.Scenario == op.Scenario }) {
					t.Fatalf("op %+v outside the mix", op)
				}
			}
		})
	}
}

func profile(owner string) []byte {
	return []byte("<html><head><title>Profile of " + owner + "</title></head><body><h1>Profile of " +
		owner + "</h1><pre>name: " + owner + "\nbio: jazz</pre></body></html>")
}

func TestCheckerRejectsWrongOwnerBody(t *testing.T) {
	ck := newChecker(workload.Users(4))
	read := workload.Op{Scenario: workload.ScenarioSocialRead, Viewer: 0, Owner: 1}
	if err := ck.check(read, reply{status: 200, body: profile("u0002")}); err == nil {
		t.Fatal("accepted another owner's profile")
	}
	if err := ck.check(read, reply{status: 200, body: profile("u0001")}); err != nil {
		t.Fatal(err)
	}
	twin := workload.Op{Scenario: workload.ScenarioWVMRead, Viewer: 3, Owner: 1}
	if err := ck.check(twin, reply{status: 200, body: append(profile("u0001"), ' ')}); err == nil {
		t.Fatal("accepted a twin page that differs from the native one")
	}
	if err := ck.check(twin, reply{status: 200, body: profile("u0001")}); err != nil {
		t.Fatal(err)
	}
	if err := ck.check(read, reply{status: 403, body: profile("u0001")}); err == nil {
		t.Fatal("accepted a 403")
	}
	blog := workload.Op{Scenario: workload.ScenarioTableQuery, Viewer: 0, Owner: 2}
	if err := ck.check(blog, reply{status: 200, body: []byte(`<li>#2: <a href="x">u0003 post 2</a></li>`)}); err == nil {
		t.Fatal("accepted another owner's blog")
	}
	pull := workload.Op{Scenario: workload.ScenarioAuditPull, Viewer: 2, Owner: 2}
	for _, body := range []string{
		"#1 t spawn actor=u0002 subject=x\n#2 t spawn actor=u0001 subject=y\n",
		"#1 t spawn actor=u0002 subject=x\n! warning: part of the spilled history was unreadable\n",
		"",
	} {
		if err := ck.check(pull, reply{status: 200, body: []byte(body)}); err == nil {
			t.Fatalf("accepted audit body %q", body)
		}
	}
	if err := ck.check(pull, reply{status: 200, body: []byte("#1 t spawn actor=u0002 subject=x\n")}); err != nil {
		t.Fatal(err)
	}
	login := workload.Op{Scenario: workload.ScenarioLogin, Viewer: 1, Owner: 1}
	if err := ck.check(login, reply{status: 200, body: []byte("hello, u0001\n")}); err == nil {
		t.Fatal("accepted a login without a session cookie")
	}
}

func script(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake-w5d")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDaemonStartFailsLoudly(t *testing.T) {
	tmp := t.TempDir()
	_, err := startDaemon(script(t, `echo "listen tcp: address already in use" >&2; exit 1`), nil, nil, tmp)
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("early exit: err = %v, want it to carry the daemon's stderr", err)
	}
	if _, err := startDaemon(filepath.Join(tmp, "missing"), nil, nil, tmp); err == nil {
		t.Fatal("missing binary: no error")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("failed starts left %d spill directories", len(left))
	}

	d, err := startDaemon(script(t, `echo "2026/01/01 W5 provider \"w5\" serving on 127.0.0.1:4242 (apps: x)" >&2; exec sleep 60`), nil, nil, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if d.addr != "127.0.0.1:4242" {
		t.Fatalf("addr = %q", d.addr)
	}
	d.stop()
	if err := d.alive(); err == nil {
		t.Fatal("stopped daemon still alive")
	}
}

func TestSpanSelfTime(t *testing.T) {
	sp := func(start, end int) span {
		return span{start: time.Duration(start), end: time.Duration(end)}
	}
	parent := sp(0, 100)
	cases := []struct {
		kids []span
		self time.Duration
	}{
		{nil, 100},
		{[]span{sp(10, 30)}, 80},
		{[]span{sp(10, 30), sp(20, 50)}, 60},               // overlap counted once
		{[]span{sp(60, 70), sp(10, 30), sp(20, 50)}, 50},   // order does not matter
		{[]span{sp(-20, 10), sp(90, 120)}, 80},             // clipped to the parent
		{[]span{sp(10, 20), sp(12, 18), sp(150, 160)}, 90}, // nested and outside
		{[]span{sp(0, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.self {
			t.Errorf("selfTime(%v) = %v, want %v", c.kids, got, c.self)
		}
	}

	tr := &tracer{base: time.Now()}
	root := tr.begin("handler")
	inv := tr.begin("core.invoke")
	tr.end(tr.begin("apps.social.handle"))
	tr.end(inv)
	tr.end(tr.begin("core.export"))
	tr.end(root)
	kids := children(tr.spans)
	if len(kids[root]) != 2 || len(kids[inv]) != 1 || kids[inv][0].name != "apps.social.handle" {
		t.Fatalf("span tree = %+v", tr.spans)
	}
	if s := selfTime(tr.spans[root], kids[root]); s < 0 || s > tr.spans[root].dur() {
		t.Fatalf("root self time %v outside [0, %v]", s, tr.spans[root].dur())
	}
}
