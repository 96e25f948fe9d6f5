package main

import (
	"bytes"
	"fmt"
	"sync"

	"w5/internal/workload"
)

// checker decides whether a reply is the right answer to its op. The
// expected content follows from the dev seed (loadgen.SeedProvider):
// every profile starts "name: <owner>", every owner has a public post
// titled "<owner> post 2", and every market query matches a seeded
// "-wvm" twin module.
type checker struct {
	users []string

	mu sync.Mutex
	// pages holds the first profile page seen per owner, from either
	// social or social-wvm: the twins must serve byte-identical pages,
	// and no op in any mix rewrites a profile.
	pages map[int][]byte
}

func newChecker(users []string) *checker {
	return &checker{users: users, pages: map[int][]byte{}}
}

// check returns nil when r is the correct reply to op.
func (ck *checker) check(op workload.Op, r reply) error {
	if r.status != 200 {
		return fmt.Errorf("status %d", r.status)
	}
	viewer, owner := ck.users[op.Viewer], ck.users[op.Owner]
	switch op.Scenario {
	case workload.ScenarioSocialRead, workload.ScenarioWVMRead:
		if !bytes.Contains(r.body, []byte("name: "+owner+"\n")) {
			return fmt.Errorf("profile page of %s lacks its name", owner)
		}
		ck.mu.Lock()
		defer ck.mu.Unlock()
		if prev, ok := ck.pages[op.Owner]; !ok {
			ck.pages[op.Owner] = bytes.Clone(r.body)
		} else if !bytes.Equal(prev, r.body) {
			return fmt.Errorf("%s page of %s differs from its twin", op.Scenario, owner)
		}
	case workload.ScenarioTableQuery:
		if !bytes.Contains(r.body, []byte(owner+" post 2<")) {
			return fmt.Errorf("blog of %s lacks its public post", owner)
		}
	case workload.ScenarioPhotoWrite:
		if !bytes.HasPrefix(r.body, []byte("stored "+photoName(op)+" (")) {
			return fmt.Errorf("photo write for %s not stored: %q", viewer, r.body)
		}
	case workload.ScenarioAuditPull, auditHead:
		lines := bytes.Split(bytes.TrimSuffix(r.body, []byte("\n")), []byte("\n"))
		if len(r.body) == 0 {
			return fmt.Errorf("empty audit trail for %s", viewer)
		}
		if op.Scenario == auditHead && len(lines) != 1 {
			return fmt.Errorf("audit head for %s has %d lines", viewer, len(lines))
		}
		for _, l := range lines {
			if bytes.HasPrefix(l, []byte("!")) {
				return fmt.Errorf("audit trail for %s incomplete: %q", viewer, l)
			}
			if !bytes.Contains(l, []byte(viewer)) {
				return fmt.Errorf("audit line for %s names someone else: %q", viewer, l)
			}
		}
	case workload.ScenarioMarketSearch:
		if !bytes.Contains(r.body, []byte("-wvm@")) {
			return fmt.Errorf("market search lists no seeded module")
		}
	case workload.ScenarioLogin:
		if r.cookie == "" {
			return fmt.Errorf("login of %s set no session cookie", viewer)
		}
	default:
		return fmt.Errorf("unknown scenario %q", op.Scenario)
	}
	return nil
}
