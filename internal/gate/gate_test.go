package gate_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/core"
	"gridproxy/internal/failure"
	"gridproxy/internal/gate"
	"gridproxy/internal/grid"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/site"
	"gridproxy/internal/ticket"
)

// fakeClock is a movable time source shared by the testbed (TGS, every
// proxy) and the gateway, so expiry tests advance the whole deployment's
// clock at once.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

type fixture struct {
	tb    *site.Testbed
	gw    *gate.Gateway
	reg   *metrics.Registry
	clock *fakeClock
}

// newFixture stands up a two-site grid and a gateway fronting sitea.
// mod, if non-nil, tweaks the gateway config before assembly.
func newFixture(t testing.TB, mod func(*gate.Config)) *fixture {
	t.Helper()
	return newFixtureOn(t, nil, mod)
}

// newFixtureOn is newFixture with a say in the grid under the gateway.
func newFixtureOn(t testing.TB, gridMod func(*site.TestbedConfig), mod func(*gate.Config)) *fixture {
	t.Helper()
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("alice", "secret"); err != nil {
		t.Fatal(err)
	}
	if err := users.AddToGroup("alice", "researchers"); err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("bob", "hunter2"); err != nil {
		t.Fatal(err)
	}
	if err := users.AddToGroup("bob", "researchers"); err != nil {
		t.Fatal(err)
	}
	users.GrantGroup("researchers", auth.Permission{Action: "*", Resource: "*"})

	clock := newFakeClock()
	reg := metrics.NewRegistry()
	gridCfg := site.TestbedConfig{
		GridName: "gatetest",
		Users:    users,
		Metrics:  reg,
		Clock:    clock.Now,
		Sites: []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(2, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(2, 1)},
		},
	}
	if gridMod != nil {
		gridMod(&gridCfg)
	}
	tb, err := site.NewTestbed(gridCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		t.Fatal(err)
	}

	cfg := gate.Config{
		Site:      "sitea",
		ProxyAddr: tb.Sites[0].LocalAddr(),
		Network:   tb.Sites[0].Local,
		TGS:       tb.TGS,
		Clock:     clock.Now,
		Metrics:   reg,
	}
	if mod != nil {
		mod(&cfg)
	}
	gw, err := gate.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tb: tb, gw: gw, reg: reg, clock: clock}
}

// do runs one request through the gateway's full pipeline.
func (f *fixture) do(method, path, token string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, body)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rr := httptest.NewRecorder()
	f.gw.ServeHTTP(rr, req)
	return rr
}

func (f *fixture) login(t testing.TB, user, password string) string {
	t.Helper()
	body := fmt.Sprintf(`{"user":%q,"password":%q}`, user, password)
	rr := f.do(http.MethodPost, "/api/login", "", strings.NewReader(body))
	if rr.Code != http.StatusOK {
		t.Fatalf("login = %d: %s", rr.Code, rr.Body)
	}
	var reply struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil || reply.Token == "" {
		t.Fatalf("login reply: %s", rr.Body)
	}
	return reply.Token
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLoginSessionsAndLogout(t *testing.T) {
	f := newFixture(t, nil)

	if rr := f.do(http.MethodGet, "/api/grid", "", nil); rr.Code != http.StatusUnauthorized {
		t.Fatalf("no session = %d", rr.Code)
	}
	rr := f.do(http.MethodPost, "/api/login", "", strings.NewReader(`{"user":"alice","password":"wrong"}`))
	if rr.Code != http.StatusUnauthorized {
		t.Fatalf("bad password = %d", rr.Code)
	}

	rr = f.do(http.MethodPost, "/api/login", "", strings.NewReader(`{"user":"alice","password":"secret"}`))
	if rr.Code != http.StatusOK {
		t.Fatalf("login = %d: %s", rr.Code, rr.Body)
	}
	var reply struct {
		Token  string   `json:"token"`
		User   string   `json:"user"`
		Groups []string `json:"groups"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.User != "alice" || len(reply.Groups) != 1 || reply.Groups[0] != "researchers" {
		t.Errorf("login reply = %+v", reply)
	}
	var cookie *http.Cookie
	for _, c := range rr.Result().Cookies() {
		if c.Name == gate.SessionCookie {
			cookie = c
		}
	}
	if cookie == nil || cookie.Value != reply.Token || !cookie.HttpOnly {
		t.Fatalf("session cookie = %+v", cookie)
	}

	// Bearer and cookie transport are equivalent.
	if rr := f.do(http.MethodGet, "/api/grid", reply.Token, nil); rr.Code != http.StatusOK {
		t.Fatalf("bearer grid = %d: %s", rr.Code, rr.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/api/grid", nil)
	req.AddCookie(cookie)
	crr := httptest.NewRecorder()
	f.gw.ServeHTTP(crr, req)
	if crr.Code != http.StatusOK {
		t.Fatalf("cookie grid = %d: %s", crr.Code, crr.Body)
	}
	var gridReply struct {
		Sites []struct {
			Site  string `json:"site"`
			Nodes int    `json:"nodes"`
		} `json:"sites"`
	}
	if err := json.Unmarshal(crr.Body.Bytes(), &gridReply); err != nil {
		t.Fatal(err)
	}
	if len(gridReply.Sites) != 2 {
		t.Errorf("sites = %+v", gridReply.Sites)
	}

	// A tampered token is a forgery, not a session. (The character changed
	// sits mid-token: the last one of an unpadded base64 string carries
	// bits that decode to nothing, and a token that already ended in the
	// replacement is no forgery at all.)
	mid, other := len(reply.Token)/2, "A"
	if reply.Token[mid] == 'A' {
		other = "B"
	}
	bad := reply.Token[:mid] + other + reply.Token[mid+1:]
	if rr := f.do(http.MethodGet, "/api/grid", bad, nil); rr.Code != http.StatusUnauthorized {
		t.Errorf("tampered token = %d", rr.Code)
	}

	// Logout revokes the token ahead of its natural expiry.
	if rr := f.do(http.MethodPost, "/api/logout", reply.Token, nil); rr.Code != http.StatusNoContent {
		t.Fatalf("logout = %d", rr.Code)
	}
	if rr := f.do(http.MethodGet, "/api/grid", reply.Token, nil); rr.Code != http.StatusUnauthorized {
		t.Errorf("revoked token = %d", rr.Code)
	}
	if n := f.reg.Counter(metrics.GateSessionsRevoked).Value(); n != 1 {
		t.Errorf("revoked = %d", n)
	}
}

// TestLogoutHoldsForEverySpelling: a logged-out token stays refused
// however its last character is spelled. Unpadded base64 leaves the low
// bits of a token's last character unused, so a lenient decoder reads
// several spellings as the same sealed bytes; three name lengths give
// the three lengths a sealed token can have modulo 3.
func TestLogoutHoldsForEverySpelling(t *testing.T) {
	f := newFixtureOn(t, func(cfg *site.TestbedConfig) {
		for _, user := range []string{"ali", "alic"} {
			if err := cfg.Users.AddUser(user, "secret"); err != nil {
				t.Fatal(err)
			}
		}
	}, nil)
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
	for _, user := range []string{"ali", "alic", "alice"} {
		token := f.login(t, user, "secret")
		if rr := f.do(http.MethodPost, "/api/logout", token, nil); rr.Code != http.StatusNoContent {
			t.Fatalf("%s: logout = %d", user, rr.Code)
		}
		for i := range alphabet {
			variant := token[:len(token)-1] + alphabet[i:i+1]
			if rr := f.do(http.MethodGet, "/api/grid", variant, nil); rr.Code != http.StatusUnauthorized {
				t.Errorf("%s: logged-out token ending in %q = %d", user, alphabet[i], rr.Code)
			}
		}
	}
}

func TestJobAndFileSurface(t *testing.T) {
	f := newFixture(t, nil)
	f.tb.RegisterProgram("quick", func(ctx context.Context, env node.Env) error {
		return nil
	})
	token := f.login(t, "alice", "secret")

	rr := f.do(http.MethodPost, "/api/jobs", token,
		strings.NewReader(`{"program":"quick","procs":2}`))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
	}
	var submitted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &submitted); err != nil || submitted.JobID == "" {
		t.Fatalf("submit reply: %s", rr.Body)
	}

	waitFor(t, 30*time.Second, "job completion", func() bool {
		rr := f.do(http.MethodGet, "/api/jobs/"+submitted.JobID, token, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("job query = %d: %s", rr.Code, rr.Body)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.State == "done"
	})

	rr = f.do(http.MethodGet, "/api/jobs", token, nil)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), submitted.JobID) {
		t.Errorf("jobs list = %d: %s", rr.Code, rr.Body)
	}
	rr = f.do(http.MethodGet, "/api/jobs/"+submitted.JobID+"/outputs", token, nil)
	if rr.Code != http.StatusOK {
		t.Errorf("outputs = %d: %s", rr.Code, rr.Body)
	}
	rr = f.do(http.MethodGet, "/api/members", token, nil)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "siteb") {
		t.Errorf("members = %d: %s", rr.Code, rr.Body)
	}

	// Data plane: put, stat, get round-trip.
	payload := "the gateway carries bytes too"
	rr = f.do(http.MethodPost, "/api/files?name=greeting.txt", token, strings.NewReader(payload))
	if rr.Code != http.StatusCreated {
		t.Fatalf("put = %d: %s", rr.Code, rr.Body)
	}
	var ref struct {
		Hash string `json:"hash"`
		Size int64  `json:"size"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &ref); err != nil || ref.Hash == "" {
		t.Fatalf("put reply: %s", rr.Body)
	}
	if ref.Size != int64(len(payload)) {
		t.Errorf("put size = %d", ref.Size)
	}
	rr = f.do(http.MethodGet, "/api/files/"+ref.Hash+"/stat", token, nil)
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"present":true`) {
		t.Errorf("stat = %d: %s", rr.Code, rr.Body)
	}
	rr = f.do(http.MethodGet, "/api/files/"+ref.Hash, token, nil)
	if rr.Code != http.StatusOK || rr.Body.String() != payload {
		t.Errorf("get = %d: %q", rr.Code, rr.Body)
	}
	if rr := f.do(http.MethodPost, "/api/files", token, strings.NewReader("x")); rr.Code != http.StatusBadRequest {
		t.Errorf("put without name = %d", rr.Code)
	}
}

func TestJobQuotaAndCancel(t *testing.T) {
	f := newFixture(t, func(cfg *gate.Config) {
		cfg.Limits.MaxJobsPerUser = 1
	})
	release := make(chan struct{})
	defer close(release)
	f.tb.RegisterProgram("hold", func(ctx context.Context, env node.Env) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-release:
			return nil
		}
	})
	token := f.login(t, "alice", "secret")

	rr := f.do(http.MethodPost, "/api/jobs", token, strings.NewReader(`{"program":"hold","procs":1}`))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
	}
	var first struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}

	// The quota holds while the first job runs.
	rr = f.do(http.MethodPost, "/api/jobs", token, strings.NewReader(`{"program":"hold","procs":1}`))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d: %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("quota refusal without Retry-After")
	}
	if n := f.reg.Counter(metrics.GateQuotaRefused).Value(); n == 0 {
		t.Error("quota refusal not counted")
	}

	// Cancelling the job frees its quota slot.
	rr = f.do(http.MethodDelete, "/api/jobs/"+first.JobID, token, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel = %d: %s", rr.Code, rr.Body)
	}
	rr = f.do(http.MethodPost, "/api/jobs", token, strings.NewReader(`{"program":"hold","procs":1}`))
	if rr.Code != http.StatusCreated {
		t.Fatalf("post-cancel submit = %d: %s", rr.Code, rr.Body)
	}
}

func TestAdmissionShedsFastUnderOverload(t *testing.T) {
	f := newFixture(t, func(cfg *gate.Config) {
		cfg.Admission = gate.AdmissionConfig{
			MaxInFlight: 1,
			MaxQueue:    1,
			QueueWait:   2 * time.Second,
			RetryAfter:  3 * time.Second,
		}
	})
	token := f.login(t, "alice", "secret")

	// Request 1 takes the only slot: an upload whose body stops arriving.
	loris := &failure.SlowLoris{Chunk: 8}
	loris.Stall()
	done1 := make(chan int, 1)
	go func() {
		done1 <- f.do(http.MethodPost, "/api/files?name=parked", token, loris.Body([]byte("a parked upload"))).Code
	}()
	waitFor(t, 5*time.Second, "parked upload", func() bool { return f.gw.InFlight() == 1 })

	// Request 2 saturates the queue.
	done2 := make(chan int, 1)
	go func() { done2 <- f.do(http.MethodGet, "/api/grid", token, nil).Code }()
	waitFor(t, 5*time.Second, "queued request", func() bool {
		return f.reg.Gauge(metrics.GateQueueDepth).Value() == 1
	})

	// Request 3 must be refused immediately — shedding that takes as
	// long as serving sheds nothing.
	start := time.Now()
	rr := f.do(http.MethodGet, "/api/grid", token, nil)
	shedIn := time.Since(start)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("overload = %d: %s", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") != "3" {
		t.Errorf("Retry-After = %q", rr.Header().Get("Retry-After"))
	}
	if shedIn > 100*time.Millisecond {
		t.Errorf("shed took %v", shedIn)
	}
	if n := f.reg.Counter(metrics.GateShed).Value(); n != 1 {
		t.Errorf("shed count = %d", n)
	}

	loris.Heal()
	if code := <-done1; code != http.StatusCreated {
		t.Errorf("parked upload = %d", code)
	}
	if code := <-done2; code != http.StatusOK {
		t.Errorf("queued request = %d", code)
	}
	if n := f.reg.Counter(metrics.GateQueued).Value(); n != 1 {
		t.Errorf("queued count = %d", n)
	}
}

func TestRateLimits(t *testing.T) {
	f := newFixture(t, func(cfg *gate.Config) {
		cfg.Limits.UserRate = 1 // burst defaults to 2
		cfg.Limits.GroupRate = -1
		cfg.Limits.LoginRate = 1
		cfg.Limits.LoginBurst = 5
	})
	token := f.login(t, "alice", "secret") // login token 1 of 5

	// The user bucket holds 2 tokens and the fake clock never refills.
	for i := 0; i < 2; i++ {
		if rr := f.do(http.MethodGet, "/api/grid", token, nil); rr.Code != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, rr.Code, rr.Body)
		}
	}
	rr := f.do(http.MethodGet, "/api/grid", token, nil)
	if rr.Code != http.StatusTooManyRequests || rr.Header().Get("Retry-After") == "" {
		t.Fatalf("over-rate = %d", rr.Code)
	}
	if n := f.reg.Counter(metrics.GateRateLimited).Value(); n != 1 {
		t.Errorf("rate-limited count = %d", n)
	}

	// Advancing the clock refills the bucket.
	f.clock.Advance(5 * time.Second)
	if rr := f.do(http.MethodGet, "/api/grid", token, nil); rr.Code != http.StatusOK {
		t.Errorf("post-refill = %d", rr.Code)
	}

	// Sign-on attempts have their own (brute-force) bucket, consumed
	// even on failure: 5 attempts drain its 5-token cap (the 5s clock
	// advance refilled the one the real login used), the 6th is refused.
	for i := 0; i < 6; i++ {
		rr = f.do(http.MethodPost, "/api/login", "",
			strings.NewReader(`{"user":"alice","password":"wrong"}`))
	}
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("login flood = %d: %s", rr.Code, rr.Body)
	}
}

func TestDrainFinishesInFlightWork(t *testing.T) {
	f := newFixture(t, nil)
	token := f.login(t, "alice", "secret")

	// Park 5 real file uploads mid-body with a slow-loris injector:
	// admitted, in-flight work the drain must not drop.
	loris := &failure.SlowLoris{Chunk: 8}
	loris.Stall()
	const uploads = 5
	type result struct {
		code int
		body string
	}
	results := make(chan result, uploads)
	for i := 0; i < uploads; i++ {
		payload := fmt.Sprintf("upload-%d payload", i)
		go func(i int, payload string) {
			req := httptest.NewRequest(http.MethodPost,
				fmt.Sprintf("/api/files?name=f%d", i), loris.Body([]byte(payload)))
			req.Header.Set("Authorization", "Bearer "+token)
			rr := httptest.NewRecorder()
			f.gw.ServeHTTP(rr, req)
			results <- result{rr.Code, rr.Body.String()}
		}(i, payload)
	}
	waitFor(t, 5*time.Second, "uploads in flight", func() bool {
		return f.gw.InFlight() == uploads
	})

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drainDone <- f.gw.Drain(ctx)
	}()

	// New arrivals are refused with 503 + Connection: close once the
	// drain begins.
	waitFor(t, 5*time.Second, "drain refusals", func() bool {
		return f.do(http.MethodGet, "/api/grid", token, nil).Code == http.StatusServiceUnavailable
	})
	rr := f.do(http.MethodGet, "/api/grid", token, nil)
	if rr.Header().Get("Connection") != "close" {
		t.Errorf("drain refusal Connection = %q", rr.Header().Get("Connection"))
	}
	if f.reg.Counter(metrics.GateDrainRefused).Value() == 0 {
		t.Error("drain refusals not counted")
	}

	// Unstall the clients: every admitted upload must complete.
	loris.Heal()
	hashes := make([]string, 0, uploads)
	for i := 0; i < uploads; i++ {
		res := <-results
		if res.code != http.StatusCreated {
			t.Fatalf("in-flight upload dropped: %d %s", res.code, res.body)
		}
		var ref struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal([]byte(res.body), &ref); err != nil || ref.Hash == "" {
			t.Fatalf("upload reply: %s", res.body)
		}
		hashes = append(hashes, ref.Hash)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain = %v", err)
	}

	// The uploads really landed on the grid: check past the (now
	// closed) gateway with a direct client.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := grid.Dial(ctx, f.tb.Sites[0].Local, f.tb.Sites[0].LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	for _, h := range hashes {
		if _, present, err := c.Stat(ctx, h); err != nil || !present {
			t.Errorf("blob %s after drain: present=%v err=%v", h, present, err)
		}
	}
}

// TestSessionExpiryAndTransparentRenewal drives the whole ticket-expiry
// chain: an expired HTTP session is refused with 401; after
// re-login, the pooled proxy connection (whose server-side session
// lapsed with the old ticket) renews itself transparently with the
// fresh ticket instead of failing the request.
func TestSessionExpiryAndTransparentRenewal(t *testing.T) {
	f := newFixture(t, nil)
	token := f.login(t, "alice", "secret")
	if rr := f.do(http.MethodGet, "/api/grid", token, nil); rr.Code != http.StatusOK {
		t.Fatalf("fresh session = %d: %s", rr.Code, rr.Body)
	}

	// Past the ticket lifetime: the session token is dead.
	f.clock.Advance(ticket.DefaultTicketLifetime + time.Minute)
	if rr := f.do(http.MethodGet, "/api/grid", token, nil); rr.Code != http.StatusUnauthorized {
		t.Fatalf("expired session = %d", rr.Code)
	}
	if f.reg.Counter(metrics.GateAuthFailures).Value() == 0 {
		t.Error("auth failure not counted")
	}

	// Re-login mints a fresh ticket. The pooled grid connection still
	// holds the proxy-side session opened with the OLD ticket, which
	// has expired — the first call hits StatusAuthExpired and the
	// client renews with the fresh ticket, invisibly to the caller.
	token2 := f.login(t, "alice", "secret")
	renewals := f.reg.Counter(metrics.GateRenewals).Value()
	if rr := f.do(http.MethodGet, "/api/grid", token2, nil); rr.Code != http.StatusOK {
		t.Fatalf("post-renewal request = %d: %s", rr.Code, rr.Body)
	}
	if got := f.reg.Counter(metrics.GateRenewals).Value(); got != renewals+1 {
		t.Errorf("renewals = %d, want %d", got, renewals+1)
	}
	if dials := f.reg.Counter(metrics.GatePoolDials).Value(); dials != 1 {
		t.Errorf("pool dials = %d, want 1 (renewal must reuse the connection)", dials)
	}
}

// TestJobListingIsTheCallersNewestPage: GET /api/jobs lists the session
// user's jobs only, newest first, a page at a time; ?before= takes the
// page's "next", the last page has none, and an empty listing is an empty
// array, never null.
func TestJobListingIsTheCallersNewestPage(t *testing.T) {
	f := newFixture(t, nil)
	f.tb.RegisterProgram("quick", func(ctx context.Context, env node.Env) error { return nil })
	aliceTok := f.login(t, "alice", "secret")
	bobTok := f.login(t, "bob", "hunter2")
	type page struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
		Next *string `json:"next"`
	}
	list := func(token, query string) (page, string) {
		t.Helper()
		rr := f.do(http.MethodGet, "/api/jobs"+query, token, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /api/jobs%s = %d: %s", query, rr.Code, rr.Body)
		}
		if !strings.HasPrefix(rr.Body.String(), `{"jobs":[`) {
			t.Fatalf("GET /api/jobs%s: body %.40q", query, rr.Body)
		}
		var p page
		if err := json.Unmarshal(rr.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		return p, rr.Body.String()
	}

	if _, body := list(bobTok, ""); body != "{\"jobs\":[]}\n" {
		t.Errorf("empty listing = %q", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	launch := func(owner string) string {
		l, err := f.tb.Sites[0].Proxy.LaunchMPI(ctx, core.LaunchSpec{Owner: owner, Program: "quick", Procs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return l.AppID
	}
	var alices []string
	for i := 0; i < core.JobPage+5; i++ {
		alices = append(alices, launch("alice"))
	}
	bobs := []string{launch("bob"), launch("bob")}

	first, body := list(aliceTok, "")
	if n := strings.Count(body, `"id":`); n != core.JobPage || len(first.Jobs) != core.JobPage || first.Next == nil {
		t.Fatalf("first page: %d jobs (%d ids), next %v", len(first.Jobs), n, first.Next)
	}
	second, _ := list(aliceTok, "?before="+*first.Next)
	if len(second.Jobs) != 5 || second.Next != nil {
		t.Fatalf("last page: %d jobs, next %v", len(second.Jobs), second.Next)
	}
	for i, j := range append(first.Jobs, second.Jobs...) {
		if want := alices[len(alices)-1-i]; j.ID != want {
			t.Fatalf("alice's job %d is %s, want %s (newest first)", i, j.ID, want)
		}
	}
	if p, _ := list(bobTok, ""); len(p.Jobs) != 2 || p.Jobs[0].ID != bobs[1] || p.Jobs[1].ID != bobs[0] || p.Next != nil {
		t.Errorf("bob's listing = %+v", p)
	}
	for _, bad := range []string{"abc", "0", "-3", "1e3"} {
		if rr := f.do(http.MethodGet, "/api/jobs?before="+bad, aliceTok, nil); rr.Code != http.StatusBadRequest {
			t.Errorf("?before=%s = %d: %s", bad, rr.Code, rr.Body)
		}
	}
}

// TestPoolEvictionSparesFreshClients regresses the dial/evict livelock:
// with the pool at capacity, a second user's freshly dialed client must
// be claimed before eviction runs, not picked as the zero-timestamp LRU
// victim and closed before first use (which redialed forever).
func TestPoolEvictionSparesFreshClients(t *testing.T) {
	f := newFixture(t, func(cfg *gate.Config) {
		cfg.PoolClients = 1
	})
	aliceTok := f.login(t, "alice", "secret")
	bobTok := f.login(t, "bob", "hunter2")

	// alice fills the pool's only slot...
	if rr := f.do(http.MethodGet, "/api/jobs", aliceTok, nil); rr.Code != http.StatusOK {
		t.Fatalf("alice jobs = %d: %s", rr.Code, rr.Body)
	}
	// ...and bob's first request must dial once, use the client, and
	// evict alice's idle entry — not loop until the route deadline.
	if rr := f.do(http.MethodGet, "/api/jobs", bobTok, nil); rr.Code != http.StatusOK {
		t.Fatalf("bob jobs = %d: %s", rr.Code, rr.Body)
	}
	if dials := f.reg.Counter(metrics.GatePoolDials).Value(); dials != 2 {
		t.Errorf("pool dials = %d, want 2 (one per user)", dials)
	}
}

// TestGroupDenialRefundsUserBucket: a request refused by a group bucket
// must hand back the user-bucket token it consumed on the way in, so
// throttling one group does not drain the user's own budget.
func TestGroupDenialRefundsUserBucket(t *testing.T) {
	f := newFixture(t, func(cfg *gate.Config) {
		cfg.Limits.UserRate = 1 // burst defaults to 2
		cfg.Limits.GroupRate = 1
		cfg.Limits.GroupBurst = 1
	})
	token := f.login(t, "alice", "secret")

	// First request spends the group's only token (user: 2 -> 1).
	if rr := f.do(http.MethodGet, "/api/grid", token, nil); rr.Code != http.StatusOK {
		t.Fatalf("first request = %d: %s", rr.Code, rr.Body)
	}
	// Every further request is refused by the GROUP bucket; the frozen
	// clock never refills, so without the refund the second refusal
	// would exhaust the user bucket and the third would blame the user.
	for i := 0; i < 3; i++ {
		rr := f.do(http.MethodGet, "/api/grid", token, nil)
		if rr.Code != http.StatusTooManyRequests {
			t.Fatalf("refusal %d = %d: %s", i, rr.Code, rr.Body)
		}
		if !strings.Contains(rr.Body.String(), "group") {
			t.Fatalf("refusal %d blamed the wrong bucket: %s", i, rr.Body)
		}
	}
}
