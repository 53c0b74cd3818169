package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/grid"
	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
)

func TestHTTPStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&grid.RemoteError{Status: proto.StatusAuthExpired}, http.StatusUnauthorized},
		{&grid.RemoteError{Status: proto.StatusUnauthorized}, http.StatusUnauthorized},
		{&grid.RemoteError{Status: proto.StatusDenied}, http.StatusForbidden},
		{&grid.RemoteError{Status: proto.StatusNotFound}, http.StatusNotFound},
		{&grid.RemoteError{Status: proto.StatusBadRequest}, http.StatusBadRequest},
		{&grid.RemoteError{Status: proto.StatusUnavailable}, http.StatusServiceUnavailable},
		{&grid.RemoteError{Status: proto.StatusInternal}, http.StatusBadGateway},
		// errors.Is/As must see through wrapping.
		{fmt.Errorf("call: %w", &grid.RemoteError{Status: proto.StatusAuthExpired}), http.StatusUnauthorized},
		{fmt.Errorf("call: %w", grid.ErrTicketExpired), http.StatusUnauthorized},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{grid.ErrAuthFailed, http.StatusUnauthorized},
		{ErrDraining, http.StatusServiceUnavailable},
		{errors.New("boom"), http.StatusBadGateway},
	}
	for _, c := range cases {
		if got := httpStatusFor(c.err); got != c.want {
			t.Errorf("httpStatusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestIndexPageEscapes: every string the overview page shows comes from
// the grid, and none of it can inject markup.
func TestIndexPageEscapes(t *testing.T) {
	page := indexPage("a<b", "u&v", []string{`<img src="x">`}, []siteRow{{Site: "<s>"}},
		[]proto.JobRecord{{JobID: "j'1", State: "failed", Detail: `<script>alert("x")</script>`}})
	for _, raw := range []string{"a<b", "u&v", "<img", "<s>", "j'1", "<script>"} {
		if strings.Contains(page, raw) {
			t.Errorf("page holds %q unescaped", raw)
		}
	}
	for _, escaped := range []string{"a&lt;b", "u&amp;v", "&lt;img src=&#34;x&#34;&gt;", "&lt;s&gt;", "j&#39;1", "&lt;script&gt;"} {
		if !strings.Contains(page, escaped) {
			t.Errorf("page lacks %q", escaped)
		}
	}
}

// TestAppendStringIsEncodingJSONs: every byte alone and between two
// letters, the runes encoding/json escapes, and random bytes (mostly
// invalid UTF-8) append as json.Marshal writes them.
func TestAppendStringIsEncodingJSONs(t *testing.T) {
	strs := []string{"", "plain", "\u2028\u2029", "\u2027\u202a", "ünïcödé \U0001F600", "\xe2\x80", "\xed\xa0\x80"}
	for c := 0; c < 256; c++ {
		strs = append(strs, string(rune(c)), "a"+string([]byte{byte(c)})+"z")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := appendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("%q appends as %q, encoding/json writes %q", s, got[1:], want)
		}
	}
}

// TestSessionStoreRoundtrip: a session token opens to what was sealed
// into it, cannot outlive the ticket it carries, and stops opening once
// forged, revoked or expired.
func TestSessionStoreRoundtrip(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	tgs, err := ticket.NewGrantingService(users, ticket.WithClock(clock), ticket.WithLifetimes(10*time.Hour, 30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	newGateway := func() *Gateway {
		g, err := New(Config{Site: "sitea", ProxyAddr: "proxy", Network: transport.NewMemNetwork(),
			TGS: tgs, SessionTTL: time.Hour, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := newGateway()
	tick := []byte("opaque-service-ticket")
	token, expiry := g.mintSession("alice", []string{"researchers"}, tick)
	if !expiry.Equal(now.Add(30 * time.Minute)) {
		t.Errorf("expiry = %v (session must not outlive its ticket)", expiry)
	}
	sc, sealed, err := g.openSession(token)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if sc.User != "alice" || len(sc.Groups) != 1 || string(sc.Inner) != string(tick) {
		t.Errorf("claims = %+v", sc)
	}

	// Forgeries: another gateway's key, and a tampered token.
	if _, _, err := newGateway().openSession(token); !errors.Is(err, ErrNoSession) {
		t.Errorf("open with other key = %v", err)
	}
	flipped := []byte(token)
	flipped[len(flipped)/2] ^= 'A' ^ 'B'
	if _, _, err := g.openSession(string(flipped)); !errors.Is(err, ErrNoSession) {
		t.Errorf("tampered open = %v", err)
	}

	// Revocation and expiry.
	g.revoked.add(sealed, sc.Expiry)
	if _, _, err := g.openSession(token); !errors.Is(err, ErrNoSession) {
		t.Errorf("revoked open = %v", err)
	}
	g.revoked.prune(now.Add(31 * time.Minute))
	g.revoked.mu.Lock()
	left := len(g.revoked.revoked)
	g.revoked.mu.Unlock()
	if left != 0 {
		t.Errorf("revocations after prune = %d", left)
	}
	now = now.Add(31 * time.Minute)
	if _, _, err := g.openSession(token); !errors.Is(err, ErrNoSession) {
		t.Errorf("expired open = %v", err)
	}
}

func TestAdmissionQueueTimesOut(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond}, nil)
	ctx := context.Background()
	_, release, err := a.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The queue slot times out waiting.
	start := time.Now()
	if _, _, err := a.admit(ctx); !errors.Is(err, errShed) {
		t.Fatalf("queued admit = %v", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Errorf("queue wait = %v, want ~20ms", waited)
	}

	// With the slot back, admission is immediate and unqueued.
	release()
	queued, release2, err := a.admit(ctx)
	if err != nil || queued {
		t.Fatalf("free admit = queued=%v err=%v", queued, err)
	}
	release2()
}

func TestAdmissionQueueRespectsContext(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: time.Minute}, nil)
	_, release, err := a.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, _, err := a.admit(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled admit = %v", err)
	}
}

func TestLimiterRefillAndPrune(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	l := newLimiter(2, 2, clock)
	if !l.allow("u:a") || !l.allow("u:a") {
		t.Fatal("burst refused")
	}
	if l.allow("u:a") {
		t.Fatal("empty bucket allowed")
	}
	now = now.Add(time.Second) // +2 tokens
	if !l.allow("u:a") || !l.allow("u:a") || l.allow("u:a") {
		t.Error("refill arithmetic wrong")
	}

	// Disabled limiter always allows.
	open := newLimiter(-1, 0, clock)
	for i := 0; i < 100; i++ {
		if !open.allow("u:a") {
			t.Fatal("disabled limiter refused")
		}
	}

	// Prune drops buckets once they are fully refilled.
	l.prune(now.Add(time.Hour))
	l.mu.Lock()
	left := len(l.buckets)
	l.mu.Unlock()
	if left != 0 {
		t.Errorf("buckets after prune = %d", left)
	}
}

func TestLimiterRefund(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	l := newLimiter(1, 2, clock)
	if !l.allow("u:a") || !l.allow("u:a") {
		t.Fatal("burst refused")
	}
	if l.allow("u:a") {
		t.Fatal("empty bucket allowed")
	}
	l.refund("u:a")
	if !l.allow("u:a") || l.allow("u:a") {
		t.Error("refund did not restore exactly one token")
	}

	// Refunds cap at the burst: over-refunding must not bank credit.
	for i := 0; i < 10; i++ {
		l.refund("u:a")
	}
	if !l.allow("u:a") || !l.allow("u:a") || l.allow("u:a") {
		t.Error("refund exceeded burst cap")
	}

	// Refunding an unknown key or a disabled limiter is a no-op.
	l.refund("u:never-seen")
	open := newLimiter(-1, 0, clock)
	open.refund("u:a")
}

func TestQuotaLifecycle(t *testing.T) {
	q := newQuota(2)
	ok, _ := q.tryReserve("alice")
	if !ok {
		t.Fatal("first reserve refused")
	}
	q.commit("alice", "j1")
	ok, _ = q.tryReserve("alice")
	if !ok {
		t.Fatal("second reserve refused")
	}
	q.commit("alice", "j2")

	ok, charged := q.tryReserve("alice")
	if ok || len(charged) != 2 {
		t.Fatalf("over-quota reserve = %v, charged %v", ok, charged)
	}
	// Other users have their own budget.
	if ok, _ := q.tryReserve("bob"); !ok {
		t.Error("bob refused by alice's quota")
	}
	q.abort("bob")

	// A terminal observation frees the slot; double observation is
	// harmless.
	q.observeTerminal("alice", "j1")
	q.observeTerminal("alice", "j1")
	ok, _ = q.tryReserve("alice")
	if !ok {
		t.Error("reserve after terminal refused")
	}
	q.abort("alice")

	// A failed submission's reservation aborts cleanly.
	ok, _ = q.tryReserve("alice")
	if !ok {
		t.Error("reserve after abort refused")
	}
	q.abort("alice")

	disabled := newQuota(-1)
	for i := 0; i < 100; i++ {
		if ok, _ := disabled.tryReserve("alice"); !ok {
			t.Fatal("disabled quota refused")
		}
	}
}

// TestPoolSweepUsesInjectedClock is a regression test for the pool
// stamping entries with time.Now() while the sweeper compared against
// the injected clock: with a fake clock far from wall time,
// now.Sub(last) was hugely negative and idle clients leaked forever.
// The gateway's cache must stamp and sweep with the gateway's clock.
func TestPoolSweepUsesInjectedClock(t *testing.T) {
	now := time.Unix(1_700_000_000, 0) // far from wall time on purpose
	clock := func() time.Time { return now }
	network, _ := acceptingProxy(t)
	g := newTestGateway(t, network, clock)
	add := func(user string) *pooledClient {
		t.Helper()
		c, err := grid.Dial(context.Background(), network, "proxy")
		if err != nil {
			t.Fatal(err)
		}
		pc := &pooledClient{Client: c}
		if !g.clients.Add(user, pc) {
			t.Fatalf("Add %s refused", user)
		}
		return pc
	}
	idle := add("alice")
	g.clients.Release("alice", idle)
	busy := add("bob") // still checked out: bob is mid-request

	// Nothing is idle yet; the sweep must not touch either client.
	g.clients.Sweep()
	if n := len(g.clients.Sites()); n != 2 {
		t.Fatalf("premature sweep: %d clients", n)
	}

	// Three fake minutes later (past the 2m idle close) the idle client
	// goes, the busy one stays.
	now = now.Add(3 * time.Minute)
	g.clients.Sweep()
	if g.clients.Has("alice") || !g.clients.Has("bob") {
		t.Fatalf("after idle sweep: alice=%v bob=%v, want swept/kept", g.clients.Has("alice"), g.clients.Has("bob"))
	}
	if !idle.Closed() {
		t.Error("swept client not closed")
	}

	// Releasing restamps with the injected clock, so the released client
	// survives a sweep at the same instant and goes one idle close later.
	g.clients.Release("bob", busy)
	g.clients.Sweep()
	if busy.Closed() {
		t.Error("just-released client swept")
	}
	now = now.Add(3 * time.Minute)
	g.clients.Sweep()
	if !busy.Closed() {
		t.Error("idle released client survived the sweep")
	}
}

// TestDeadPooledClientIsRedialed: a pooled client whose connection died
// is dropped and a fresh one dialed; the dead one is never handed out.
func TestDeadPooledClientIsRedialed(t *testing.T) {
	network, accepted := acceptingProxy(t)
	g := newTestGateway(t, network, time.Now)
	c, err := grid.Dial(context.Background(), network, "proxy")
	if err != nil {
		t.Fatal(err)
	}
	dead := &pooledClient{Client: c}
	g.clients.Add("alice", dead)
	g.clients.Release("alice", dead)
	(<-accepted).Close() // the proxy end goes away
	<-dead.Done()

	// The fake proxy never answers a login, so the redial runs into the
	// deadline: what matters is that it was tried.
	sc := ticket.Claims{User: "alice", Inner: []byte("service-ticket")}
	ctx, cancel := context.WithTimeout(withSession(context.Background(), sc, nil), 50*time.Millisecond)
	defer cancel()
	if client, _, err := g.client(ctx, sc); err == nil {
		t.Fatalf("client = %p, want the redial's error", client)
	}
	if g.clients.Has("alice") {
		t.Error("the dead client is still pooled")
	}
	select {
	case <-accepted:
	default:
		t.Error("no redial reached the proxy")
	}
}

// TestCheckoutAfterDrainIsErrDraining: once the drain has closed the
// cache, a checkout fails as ErrDraining (503), not as a cancellation.
func TestCheckoutAfterDrainIsErrDraining(t *testing.T) {
	network, _ := acceptingProxy(t)
	g := newTestGateway(t, network, time.Now)
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	sc := ticket.Claims{User: "alice", Inner: []byte("service-ticket")}
	if _, _, err := g.client(withSession(context.Background(), sc, nil), sc); !errors.Is(err, ErrDraining) {
		t.Fatalf("checkout after drain = %v, want ErrDraining", err)
	}
}

// acceptingProxy listens at "proxy" on a mem network, accepts every
// connection and hands it to the test, never answering.
func acceptingProxy(t *testing.T) (transport.Network, <-chan net.Conn) {
	t.Helper()
	network := transport.NewMemNetwork()
	ln, err := network.Listen("proxy")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 8) // more than any test dials
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	return network, accepted
}

func newTestGateway(t *testing.T, network transport.Network, clock func() time.Time) *Gateway {
	t.Helper()
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	tgs, err := ticket.NewGrantingService(users, ticket.WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Site: "sitea", ProxyAddr: "proxy", Network: network, TGS: tgs, Clock: clock,
		Logger: logging.Discard(), Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.clients.CloseAll)
	return g
}
