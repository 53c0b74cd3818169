package webui_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/monitor"
	"gridproxy/internal/node"
	"gridproxy/internal/site"
	"gridproxy/internal/webui"
)

func newServer(t *testing.T) (*httptest.Server, *site.Testbed) {
	t.Helper()
	tb, err := site.NewTestbed(site.TestbedConfig{
		Sites: []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(2, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(3, 1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(webui.New(tb.Sites[0].Proxy))
	t.Cleanup(server.Close)
	return server, tb
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestAPIStatus(t *testing.T) {
	server, _ := newServer(t)
	code, body := get(t, server.URL+"/api/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var summaries []monitor.SiteSummary
	if err := json.Unmarshal(body, &summaries); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(summaries) != 2 {
		t.Fatalf("summaries = %+v", summaries)
	}
	total := 0
	for _, s := range summaries {
		total += s.Nodes
	}
	if total != 5 {
		t.Errorf("total nodes = %d", total)
	}
}

func TestAPIStatusSiteFilter(t *testing.T) {
	server, _ := newServer(t)
	code, body := get(t, server.URL+"/api/status?site=siteb")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var summaries []monitor.SiteSummary
	if err := json.Unmarshal(body, &summaries); err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 1 || summaries[0].Site != "siteb" {
		t.Errorf("filtered = %+v", summaries)
	}
}

func TestAPIGrid(t *testing.T) {
	server, _ := newServer(t)
	code, body := get(t, server.URL+"/api/grid")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var status monitor.GridStatus
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.Sites != 2 || status.Nodes != 5 {
		t.Errorf("grid = %+v", status)
	}
}

// TestAPIGridCompilesAPIStatus: the grid totals are the sum of the site
// summaries /api/status serves — before and after the directory convicts
// a site, which leaves both answers together.
func TestAPIGridCompilesAPIStatus(t *testing.T) {
	server, tb := newServer(t)
	check := func(wantSites int) {
		t.Helper()
		var summaries []monitor.SiteSummary
		_, body := get(t, server.URL+"/api/status")
		if err := json.Unmarshal(body, &summaries); err != nil {
			t.Fatal(err)
		}
		var grid monitor.GridStatus
		_, body = get(t, server.URL+"/api/grid")
		if err := json.Unmarshal(body, &grid); err != nil {
			t.Fatal(err)
		}
		var sum monitor.GridStatus
		for _, s := range summaries {
			sum.Sites++
			sum.Nodes += s.Nodes
			sum.NodesUp += s.NodesUp
			sum.RAMFreeMB += s.RAMFreeMB
			sum.DiskFreeMB += s.DiskFreeMB
			sum.RunningProcs += s.RunningProcs
		}
		if grid != sum || grid.Sites != wantSites {
			t.Fatalf("/api/grid = %+v, want the sum of /api/status %+v over %d sites", grid, sum, wantSites)
		}
	}
	check(2)

	tb.Sites[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		summaries, err := tb.Sites[0].Proxy.Status(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(summaries) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("siteb still served 10s after its proxy closed: %+v", summaries)
		}
		time.Sleep(10 * time.Millisecond)
	}
	check(1)
}

func TestAPIResourcesAndPeers(t *testing.T) {
	server, _ := newServer(t)
	for query, want := range map[string]int{"kind=node": 2, "kind=node&site=siteb": 3} {
		code, body := get(t, server.URL+"/api/resources?"+query)
		if code != http.StatusOK {
			t.Fatalf("resources?%s status = %d", query, code)
		}
		var resources []map[string]any
		if err := json.Unmarshal(body, &resources); err != nil {
			t.Fatal(err)
		}
		if len(resources) != want {
			t.Errorf("resources?%s = %d, want %d", query, len(resources), want)
		}
	}

	code, body := get(t, server.URL+"/api/peers")
	if code != http.StatusOK {
		t.Fatalf("peers status = %d", code)
	}
	var peers []string
	if err := json.Unmarshal(body, &peers); err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0] != "siteb" {
		t.Errorf("peers = %v", peers)
	}
}

func TestIndexPage(t *testing.T) {
	server, _ := newServer(t)
	code, body := get(t, server.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	html := string(body)
	for _, want := range []string{"site sitea", "siteb", "<table>"} {
		if !strings.Contains(html, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	server, _ := newServer(t)
	code, body := get(t, server.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestNotFound(t *testing.T) {
	server, _ := newServer(t)
	code, _ := get(t, server.URL+"/no/such/page")
	if code != http.StatusNotFound {
		t.Errorf("status = %d", code)
	}
}

func TestAPIJobsListsLaunches(t *testing.T) {
	server, tb := newServer(t)
	for _, s := range tb.Sites {
		s.RegisterProgram("noop", func(ctx context.Context, env node.Env) error { return nil })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	launch, err := tb.Sites[0].Proxy.LaunchMPI(ctx, core.LaunchSpec{
		Owner: "admin", Program: "noop", Procs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// noop isn't an MPI program; it just returns nil immediately, which
	// is fine for job bookkeeping.
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, server.URL+"/api/jobs")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var jobs []core.JobInfo
	if err := json.Unmarshal(body, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].AppID != launch.AppID || jobs[0].State != "done" {
		t.Errorf("jobs = %+v", jobs)
	}
}
