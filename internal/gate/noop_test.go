package gate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/gate"
	"gridproxy/internal/node"
	"gridproxy/internal/proto"
	"gridproxy/internal/site"
)

// apiClient drives a gateway behind a real HTTP server as a portal would,
// reading a sized body into a buffer of its size.
type apiClient struct {
	srv   *httptest.Server
	token string
}

func (c *apiClient) do(t testing.TB, method, path string, body []byte, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload []byte
	if resp.ContentLength > 0 {
		payload = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, payload)
	} else {
		payload, err = io.ReadAll(resp.Body)
	}
	if err != nil || resp.StatusCode != want {
		t.Fatalf("%s %s = %d, %v: %s", method, path, resp.StatusCode, err, payload)
	}
	return payload
}

// noopOp is one operation of gridmark's control_mix: both listings, then a
// job of one rank per site whose one input every site already holds, one
// poll once it has ended, and its outputs.
func noopOp(t testing.TB, f *fixture, c *apiClient, job []byte) {
	t.Helper()
	c.do(t, http.MethodGet, "/api/grid", nil, http.StatusOK)
	c.do(t, http.MethodGet, "/api/jobs", nil, http.StatusOK)
	var submitted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(c.do(t, http.MethodPost, "/api/jobs", job, http.StatusCreated), &submitted); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		state, detail, err := f.tb.Sites[0].Proxy.JobStatus(submitted.JobID)
		if err != nil || state == proto.JobFailed || state == proto.JobCancelled || time.Now().After(deadline) {
			t.Fatalf("job %s: state %d %q, %v", submitted.JobID, state, detail, err)
		}
		if state == proto.JobDone {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if poll := c.do(t, http.MethodGet, "/api/jobs/"+submitted.JobID, nil, http.StatusOK); !bytes.Contains(poll, []byte(`"state":"done"`)) {
		t.Fatalf("poll: %s", poll)
	}
	c.do(t, http.MethodGet, "/api/jobs/"+submitted.JobID+"/outputs", nil, http.StatusOK)
}

// TestNoopJobAllocBudget bounds what one no-op job costs in allocation,
// end to end from the HTTP client through the gateway and both proxies to
// spawn and back, with a 100-job listing on every operation. The race
// detector allocates on its own account, so the budget is checked
// without it. (Before control messages were encoded into pooled buffers,
// gateway replies sized and the listing kept in one record type from the
// job log to the JSON, an operation allocated about 171 KB in 1 303
// allocations; since, about 108 KB in 1 066.)
func TestNoopJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	oneNodeEach := func(cfg *site.TestbedConfig) {
		for i := range cfg.Sites {
			cfg.Sites[i].Nodes = site.UniformNodes(1, 1)
		}
	}
	f := newFixtureOn(t, oneNodeEach, func(cfg *gate.Config) {
		cfg.Limits.UserRate, cfg.Limits.UserBurst = 1e9, 1e9
		cfg.Limits.GroupRate, cfg.Limits.GroupBurst = 1e9, 1e9
	})
	f.tb.RegisterProgram("noop", func(ctx context.Context, env node.Env) error {
		if _, ok := env.StagedInput("param"); !ok {
			return fmt.Errorf("no staged input")
		}
		return nil
	})
	c := &apiClient{srv: f.serve(t), token: f.login(t, "alice", "secret")}
	var ref putReply
	if err := json.Unmarshal(c.do(t, http.MethodPost, "/api/files?name=param", seededBlob(40, 4<<10), http.StatusCreated), &ref); err != nil {
		t.Fatal(err)
	}
	job := []byte(fmt.Sprintf(`{"program":"noop","args":["param"],"procs":2,"stage_in":[{"name":"param","hash":%q,"size":%d}]}`, ref.Hash, ref.Size))

	// The first job pulls the input to siteb; by the last warm-up job the
	// listing is a full page of finished jobs.
	for i := 0; i < 105; i++ {
		noopOp(t, f, c, job)
	}
	if n := strings.Count(string(c.do(t, http.MethodGet, "/api/jobs", nil, http.StatusOK)), `"id":`); n != 100 {
		t.Fatalf("the listing holds %d jobs, want 100", n)
	}

	const ops = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		noopOp(t, f, c, job)
	}
	runtime.ReadMemStats(&after)
	bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / ops
	allocsPerOp := (after.Mallocs - before.Mallocs) / ops
	t.Logf("a no-op job allocated %d B in %d allocations", bytesPerOp, allocsPerOp)
	const maxBytes, maxAllocs = 140 << 10, 1_180
	if bytesPerOp > maxBytes || allocsPerOp > maxAllocs {
		t.Errorf("a no-op job allocated %d B in %d allocations, budget %d B in %d", bytesPerOp, allocsPerOp, maxBytes, maxAllocs)
	}
}
