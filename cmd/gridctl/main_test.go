package main

import (
	"context"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/core"
	"gridproxy/internal/grid"
	"gridproxy/internal/node"
	"gridproxy/internal/site"
)

// TestAllJobsFollowsTheCursor: `gridctl jobs` is the operator's view —
// every owner's jobs, past the first page, each once, newest first.
func TestAllJobsFollowsTheCursor(t *testing.T) {
	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "ctltest",
		Sites:    []site.SiteSpec{{Name: "sitea", Nodes: site.UniformNodes(1, 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	if err := tb.Users.AddUser("bob", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Users.GrantUser("bob", auth.Permission{Action: "mpi", Resource: "site:*"}); err != nil {
		t.Fatal(err)
	}
	tb.RegisterProgram("quick", func(ctx context.Context, env node.Env) error { return nil })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := tb.Sites[0]
	var submitted []string
	for i := 0; i < 2*core.JobPage+10; i++ {
		owner := "admin"
		if i%3 == 0 {
			owner = "bob"
		}
		l, err := s.Proxy.LaunchMPI(ctx, core.LaunchSpec{Owner: owner, Program: "quick", Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, l.AppID)
	}

	client, err := grid.Dial(ctx, s.Local, s.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Login(ctx, "admin", "admin"); err != nil {
		t.Fatal(err)
	}
	jobs, err := allJobs(ctx, client)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(submitted) {
		t.Fatalf("listed %d jobs, want %d", len(jobs), len(submitted))
	}
	for i, j := range jobs {
		if want := submitted[len(submitted)-1-i]; j.ID != want {
			t.Fatalf("job %d is %s, want %s", i, j.ID, want)
		}
	}
}
