package core

// White-box test of the id-collision rules of a site's application
// records. Placements are given explicitly (launchAt), so each case puts
// its ranks exactly where the rule under test needs them.

import (
	"context"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/transport"
)

// TestAppIDCollisionRules: at sitea, an origin launch under an id sitea
// hosts for siteb is refused; a prepare under the id of a job sitea runs
// is refused; a prepare under the id of a job sitea finished is accepted,
// and the finished job stays queryable beside the hosted ranks. Once
// every job has ended, neither site holds an address space.
func TestAppIDCollisionRules(t *testing.T) {
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := users.GrantUser("alice", auth.Permission{Action: "*", Resource: "*"}); err != nil {
		t.Fatal(err)
	}
	wan := transport.NewMemNetwork()
	mk := func(site string) *Proxy {
		p, err := New(Config{Site: site, WANAddr: "wan." + site, WAN: wan, Local: transport.NewMemNetwork(), Users: users})
		if err != nil {
			t.Fatal(err)
		}
		p.AttachNode(newFenceNode(site + "-n0"))
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	a, b := mk("sitea"), mk("siteb")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Connect(ctx, "siteb", "wan.siteb"); err != nil {
		t.Fatal(err)
	}
	launch := func(p *Proxy, id string, locations map[int]rankLoc) error {
		_, err := p.launchAt(ctx, LaunchSpec{Owner: "alice", Program: "noop", AppID: id}, locations)
		return err
	}
	atA := rankLoc{site: "sitea", node: "sitea-n0"}
	atB := rankLoc{site: "siteb", node: "siteb-n0"}

	// siteb's job "hosted" has a rank at sitea: sitea may not launch it.
	if err := launch(b, "hosted", map[int]rankLoc{0: atB, 1: {site: "sitea"}}); err != nil {
		t.Fatal(err)
	}
	if err := launch(a, "hosted", map[int]rankLoc{0: atA}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("sitea launched an id it hosts for siteb: %v", err)
	}

	// sitea runs "live": siteb's job under that id may not land a rank there.
	if err := launch(a, "live", map[int]rankLoc{0: atA}); err != nil {
		t.Fatal(err)
	}
	if err := launch(b, "live", map[int]rankLoc{0: atB, 1: {site: "sitea"}}); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Errorf("sitea prepared an id its own job runs under: %v", err)
	}

	// sitea's "done" is finished: siteb's job under that id may land there.
	if err := launch(a, "done", map[int]rankLoc{0: atA}); err != nil {
		t.Fatal(err)
	}
	if err := a.Cancel(ctx, "done"); err != nil {
		t.Fatal(err)
	}
	if err := launch(b, "done", map[int]rankLoc{0: atB, 1: {site: "sitea"}}); err != nil {
		t.Errorf("sitea refused a prepare under the id of a finished job: %v", err)
	}
	if _, ok := a.lookupHosted("done"); !ok {
		t.Error("sitea does not host siteb's rank of \"done\"")
	}
	if state, _, err := a.JobStatus("done"); err != nil || state.Name() != "cancelled" {
		t.Errorf("sitea's finished \"done\" reads %v (%v) beside the hosted ranks", state, err)
	}

	for _, c := range []struct {
		p  *Proxy
		id string
	}{{b, "hosted"}, {a, "live"}, {b, "done"}} {
		if err := c.p.Cancel(ctx, c.id); err != nil {
			t.Errorf("cancel %s at %s: %v", c.id, c.p.Site(), err)
		}
	}
	for _, p := range []*Proxy{a, b} {
		waitUntil(t, p.Site()+" releases every address space", func() bool { return p.ActiveApps() == 0 })
	}
	if _, _, err := a.JobStatus("done"); err != nil {
		t.Errorf("sitea lost its finished \"done\" when the hosted ranks ended: %v", err)
	}
}
