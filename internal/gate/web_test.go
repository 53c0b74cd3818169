package gate_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/monitor"
	"gridproxy/internal/node"
	"gridproxy/internal/site"
)

// TestSessionBoundary: every route the gateway registers, other than login
// and the liveness probe, answers 401 to a request with no token, a tampered
// token and a token that has logged out — nothing about jobs, sites,
// resources or files is served without a session.
func TestSessionBoundary(t *testing.T) {
	f := newFixture(t, nil)
	token := f.login(t, "alice", "secret")
	mid, other := len(token)/2, "A"
	if token[mid] == 'A' {
		other = "B"
	}
	tampered := token[:mid] + other + token[mid+1:]
	loggedOut := f.login(t, "alice", "secret")
	if rr := f.do(http.MethodPost, "/api/logout", loggedOut, nil); rr.Code != http.StatusNoContent {
		t.Fatalf("logout = %d", rr.Code)
	}

	routes := []struct{ method, path string }{
		{http.MethodPost, "/api/logout"},
		{http.MethodGet, "/"},
		{http.MethodGet, "/api/grid"},
		{http.MethodGet, "/api/members"},
		{http.MethodGet, "/api/resources?kind=node"},
		{http.MethodGet, "/api/jobs"},
		{http.MethodPost, "/api/jobs"},
		{http.MethodGet, "/api/jobs/j1"},
		{http.MethodDelete, "/api/jobs/j1"},
		{http.MethodGet, "/api/jobs/j1/outputs"},
		{http.MethodPost, "/api/files?name=f"},
		{http.MethodGet, "/api/files/h"},
		{http.MethodGet, "/api/files/h/stat"},
	}
	for _, route := range routes {
		for name, tok := range map[string]string{"missing": "", "tampered": tampered, "logged out": loggedOut} {
			body := strings.NewReader(`{"program":"quick","procs":1}`)
			if rr := f.do(route.method, route.path, tok, body); rr.Code != http.StatusUnauthorized {
				t.Errorf("%s %s with a %s token = %d: %s", route.method, route.path, name, rr.Code, rr.Body)
			}
		}
	}
}

// TestHealthz: the liveness probe answers without a session.
func TestHealthz(t *testing.T) {
	f := newFixture(t, nil)
	if rr := f.do(http.MethodGet, "/healthz", "", nil); rr.Code != http.StatusOK {
		t.Errorf("healthz = %d", rr.Code)
	}
}

// TestNotFound: a path no route names is 404, session or not.
func TestNotFound(t *testing.T) {
	f := newFixture(t, nil)
	token := f.login(t, "alice", "secret")
	if rr := f.do(http.MethodGet, "/no/such/page", token, nil); rr.Code != http.StatusNotFound {
		t.Errorf("unknown path = %d", rr.Code)
	}
}

// TestWebViewShowsOnlyTheCallersJobs: a job bob submits is on his overview
// page and in his listing, and on neither of alice's.
func TestWebViewShowsOnlyTheCallersJobs(t *testing.T) {
	f := newFixture(t, nil)
	f.tb.RegisterProgram("quick", func(ctx context.Context, env node.Env) error { return nil })
	aliceTok := f.login(t, "alice", "secret")
	bobTok := f.login(t, "bob", "hunter2")

	rr := f.do(http.MethodPost, "/api/jobs", bobTok, strings.NewReader(`{"program":"quick","procs":1}`))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
	}
	var submitted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &submitted); err != nil || submitted.JobID == "" {
		t.Fatalf("submit reply: %s", rr.Body)
	}

	for _, path := range []string{"/", "/api/jobs"} {
		for user, tok := range map[string]string{"alice": aliceTok, "bob": bobTok} {
			rr := f.do(http.MethodGet, path, tok, nil)
			if rr.Code != http.StatusOK {
				t.Fatalf("%s's GET %s = %d: %s", user, path, rr.Code, rr.Body)
			}
			if shown := strings.Contains(rr.Body.String(), submitted.JobID); shown != (user == "bob") {
				t.Errorf("%s's GET %s shows bob's job: %v", user, path, shown)
			}
		}
	}
}

// threeAtSiteb gives siteb a third node, so answers about sitea and siteb
// differ.
func threeAtSiteb(cfg *site.TestbedConfig) {
	cfg.Sites[1].Nodes = site.UniformNodes(3, 1)
}

// gridView is /api/grid's answer: a row per site and the totals beside them.
type gridView struct {
	Sites []struct {
		Site         string `json:"site"`
		Nodes        int    `json:"nodes"`
		NodesUp      int    `json:"nodes_up"`
		RAMFreeMB    int64  `json:"ram_free_mb"`
		DiskFreeMB   int64  `json:"disk_free_mb"`
		RunningProcs int    `json:"running_procs"`
	} `json:"sites"`
	Totals monitor.GridStatus `json:"totals"`
}

// grid fetches /api/grid with token and returns it decoded and raw.
func (f *fixture) grid(t *testing.T, token string) (gridView, []byte) {
	t.Helper()
	rr := f.do(http.MethodGet, "/api/grid", token, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /api/grid = %d: %s", rr.Code, rr.Body)
	}
	var view gridView
	if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	return view, rr.Body.Bytes()
}

// TestAPIGrid: /api/grid's totals count both sites and all five nodes.
func TestAPIGrid(t *testing.T) {
	f := newFixtureOn(t, threeAtSiteb, nil)
	view, body := f.grid(t, f.login(t, "alice", "secret"))
	if got := view.Totals; got.Sites != 2 || got.Nodes != 5 || got.DiskFreeMB == 0 {
		t.Fatalf("totals %+v, want 2 sites, 5 nodes and free disk: %s", got, body)
	}
}

// TestAPIStatus: /api/grid serves one row per site carrying every field of
// the site summary, and each row counts that site's own nodes.
func TestAPIStatus(t *testing.T) {
	f := newFixtureOn(t, threeAtSiteb, nil)
	view, body := f.grid(t, f.login(t, "alice", "secret"))
	var rows struct {
		Sites []map[string]any `json:"sites"`
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows.Sites {
		for _, key := range []string{"site", "nodes", "nodes_up", "cpu_free_pct", "ram_free_mb", "disk_free_mb", "load1", "running_procs"} {
			if _, ok := row[key]; !ok {
				t.Errorf("site row %v lacks %q", row, key)
			}
		}
	}
	nodes := map[string]int{}
	for _, s := range view.Sites {
		nodes[s.Site] = s.Nodes
	}
	if len(nodes) != 2 || nodes["sitea"] != 2 || nodes["siteb"] != 3 {
		t.Errorf("nodes per site %v, want sitea 2 and siteb 3", nodes)
	}
}

// TestAPIGridCompilesAPIStatus: /api/grid's totals are the sum of the
// per-site rows it serves beside them — before and after the directory
// convicts a site, which leaves both together.
func TestAPIGridCompilesAPIStatus(t *testing.T) {
	f := newFixtureOn(t, threeAtSiteb, nil)
	token := f.login(t, "alice", "secret")
	check := func(wantSites, wantNodes int) {
		t.Helper()
		view, _ := f.grid(t, token)
		var sum monitor.GridStatus
		for _, s := range view.Sites {
			sum.Sites++
			sum.Nodes += s.Nodes
			sum.NodesUp += s.NodesUp
			sum.RAMFreeMB += s.RAMFreeMB
			sum.DiskFreeMB += s.DiskFreeMB
			sum.RunningProcs += s.RunningProcs
		}
		if view.Totals != sum || sum.Sites != wantSites || sum.Nodes != wantNodes || sum.DiskFreeMB == 0 {
			t.Fatalf("totals %+v, want the sum of the sites %+v: %d sites, %d nodes", view.Totals, sum, wantSites, wantNodes)
		}
	}
	check(2, 5)

	f.tb.Sites[1].Close()
	waitFor(t, 10*time.Second, "siteb's conviction", func() bool {
		summaries, err := f.tb.Sites[0].Proxy.Status(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(summaries) == 1
	})
	check(1, 2)
}

// TestAPIResourcesAndPeers: /api/resources answers for the fronted site by
// default and for another when asked, and the held tunnel shows in
// /api/members.
func TestAPIResourcesAndPeers(t *testing.T) {
	f := newFixtureOn(t, threeAtSiteb, nil)
	token := f.login(t, "alice", "secret")
	for query, want := range map[string]int{"kind=node": 2, "kind=node&site=siteb": 3} {
		rr := f.do(http.MethodGet, "/api/resources?"+query, token, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("resources?%s = %d: %s", query, rr.Code, rr.Body)
		}
		var reply struct {
			Resources []struct {
				Kind string `json:"kind"`
			} `json:"resources"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Resources) != want {
			t.Errorf("resources?%s = %d, want %d", query, len(reply.Resources), want)
		}
	}

	rr := f.do(http.MethodGet, "/api/members", token, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("members = %d: %s", rr.Code, rr.Body)
	}
	var reply struct {
		Members []struct {
			Site   string `json:"site"`
			Tunnel bool   `json:"tunnel"`
		} `json:"members"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	peered := false
	for _, m := range reply.Members {
		peered = peered || m.Site == "siteb" && m.Tunnel
	}
	if !peered {
		t.Errorf("siteb is not a member with a tunnel: %s", rr.Body)
	}
}

func TestIndexPage(t *testing.T) {
	f := newFixture(t, nil)
	token := f.login(t, "alice", "secret")
	rr := f.do(http.MethodGet, "/", token, nil)
	if rr.Code != http.StatusOK || !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/html") {
		t.Fatalf("GET / = %d (%s)", rr.Code, rr.Header().Get("Content-Type"))
	}
	html := rr.Body.String()
	for _, want := range []string{"site sitea", "Connected peers: siteb", "<td>siteb</td>", "Jobs of alice", "<table>"} {
		if !strings.Contains(html, want) {
			t.Errorf("index missing %q", want)
		}
	}
}
