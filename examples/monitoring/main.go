// monitoring: watch the distributed status collection at work. Each proxy
// compiles its own site; the origin proxy assembles the grid view with one
// control exchange per site. A burst of work visibly moves the load
// numbers, and the grid's web interface (the gate, behind a login session)
// serves the same data over HTTP.
//
//	go run ./examples/monitoring
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/gate"
	"gridproxy/internal/metrics"
	"gridproxy/internal/programs"
	"gridproxy/internal/site"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	reg := metrics.NewRegistry()
	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "monitoring",
		Sites: []site.SiteSpec{
			{Name: "north", Nodes: site.UniformNodes(3, 1)},
			{Name: "south", Nodes: site.UniformNodes(5, 1)},
			{Name: "west", Nodes: site.UniformNodes(2, 1)},
		},
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	defer tb.Close()
	if err := tb.ConnectAll(ctx); err != nil {
		return err
	}
	for _, s := range tb.Sites {
		for _, agent := range s.Nodes {
			programs.RegisterAll(agent)
		}
	}
	origin := tb.Sites[0].Proxy

	printStatus := func(label string) error {
		before := reg.Counter(metrics.ControlMessages).Value()
		summaries, err := origin.Status(ctx, nil)
		if err != nil {
			return err
		}
		msgs := reg.Counter(metrics.ControlMessages).Value() - before
		fmt.Printf("%s (control messages for the full refresh: %d)\n", label, msgs)
		for _, s := range summaries {
			fmt.Printf("  %-6s nodes=%d up=%d load=%.2f procs=%d\n",
				s.Site, s.Nodes, s.NodesUp, s.Load1, s.RunningProcs)
		}
		return nil
	}

	if err := printStatus("idle grid:"); err != nil {
		return err
	}

	// Put the grid under load and look again.
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
		Owner:   "admin",
		Program: "sleep",
		Args:    []string{"400ms"},
		Procs:   8,
	})
	if err != nil {
		return err
	}
	time.Sleep(50 * time.Millisecond) // let the ranks start
	if err := printStatus("under an 8-process job:"); err != nil {
		return err
	}
	if err := launch.Wait(ctx); err != nil {
		return err
	}
	if err := printStatus("after completion:"); err != nil {
		return err
	}

	// The same compiled view through the grid's front door: log in as the
	// testbed's admin, then read /api/grid with the session.
	gw, err := gate.New(gate.Config{
		Site:      tb.Sites[0].Name,
		ProxyAddr: tb.Sites[0].LocalAddr(),
		Network:   tb.Sites[0].Local,
		TGS:       tb.TGS,
		Metrics:   reg,
	})
	if err != nil {
		return err
	}
	defer gw.Drain(ctx)
	server := httptest.NewServer(gw)
	defer server.Close()
	resp, err := http.Post(server.URL+"/api/login", "application/json",
		strings.NewReader(`{"user":"admin","password":"admin"}`))
	if err != nil {
		return err
	}
	var login struct {
		Token string `json:"token"`
	}
	err = json.NewDecoder(resp.Body).Decode(&login)
	resp.Body.Close()
	if err != nil || login.Token == "" {
		return fmt.Errorf("login: %s: %v", resp.Status, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, server.URL+"/api/grid", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+login.Token)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("\nGET /api/grid → %s\n%s", resp.Status, body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /api/grid: %s", resp.Status)
	}
	return nil
}
