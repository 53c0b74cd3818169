// Package gate is the grid's multi-tenant HTTP front door — the paper's
// "Web Access Interface" (L3) grown into a production-shaped gateway. It
// fronts the internal/grid client API with a REST surface (login,
// submit, status, jobs, cancel, files, outputs, members, resources) and
// an HTML overview page, authenticates once per session via the
// internal/ticket TGT flow, and carries the user's service ticket inside
// an opaque HMAC-sealed session token so every later request is one
// cheap HMAC — no password or public-key operation per request.
//
// Around that core sit the parts that let one gateway face heavy
// traffic:
//
//   - admission control: a bounded in-flight semaphore plus a bounded
//     accept queue; overload is refused fast with 429 + Retry-After
//     instead of queueing unboundedly;
//   - per-user and per-group token-bucket rate limits, and a
//     concurrent-jobs-per-user quota;
//   - per-route timeouts, so a stuck backend call cannot pin a slot;
//   - graceful drain: stop accepting, finish in-flight, close grid
//     clients;
//   - one pooled, multiplexed grid.Client per user, held in a
//     peerlink.Cache keyed by user name, so 100k HTTP clients do not
//     mean 100k proxy dials.
package gate

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/grid"
	"gridproxy/internal/metrics"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
)

// Package errors.
var (
	// ErrNoSession is returned when a request carries no (or an invalid)
	// session token.
	ErrNoSession = errors.New("gate: missing or invalid session")
	// ErrDraining is returned to requests arriving during shutdown.
	ErrDraining = errors.New("gate: draining")
)

// SessionCookie is the cookie the gateway sets on login. The same token
// is accepted as "Authorization: Bearer <token>".
const SessionCookie = "gridgate_session"

// RouteTimeouts bounds handler time per route class. Zero fields take
// the defaults.
type RouteTimeouts struct {
	// Login bounds the sign-on exchange (the one expensive op).
	Login time.Duration
	// Submit bounds job submission (includes multi-site launch).
	Submit time.Duration
	// Query bounds cheap reads (status, jobs, members).
	Query time.Duration
	// Data bounds file put/get.
	Data time.Duration
}

// WithDefaults fills zero fields.
func (t RouteTimeouts) WithDefaults() RouteTimeouts {
	if t.Login <= 0 {
		t.Login = 10 * time.Second
	}
	if t.Submit <= 0 {
		t.Submit = 60 * time.Second
	}
	if t.Query <= 0 {
		t.Query = 10 * time.Second
	}
	if t.Data <= 0 {
		t.Data = 30 * time.Second
	}
	return t
}

// Config assembles a Gateway.
type Config struct {
	// Site is the fronted proxy's site name (ticket service
	// "proxy:<site>").
	Site string
	// ProxyAddr is the proxy's site-local client address.
	ProxyAddr string
	// Network is the site-local network the gateway dials the proxy on.
	Network transport.Network
	// TGS performs sign-on and grants the service tickets sessions
	// carry. The gateway holds it in-process (TGT issuance has no wire
	// protocol, by design: the TGT never leaves the TGS's trust domain).
	TGS *ticket.GrantingService
	// SessionTTL bounds a login session; it is further capped by the
	// granted ticket's lifetime. Default 1h.
	SessionTTL time.Duration
	// Admission carries the load-shedding knobs.
	Admission AdmissionConfig
	// Limits carries rate-limit and quota knobs.
	Limits LimitConfig
	// Timeouts carries the per-route deadline knobs.
	Timeouts RouteTimeouts
	// PoolClients caps the pooled grid clients, one per user; past it
	// the least recently used idle client is closed. Default 64.
	PoolClients int
	// MaxBodyBytes caps request bodies (file puts). Default 8 MiB.
	MaxBodyBytes int64
	// Clock overrides the time source (tests). Nil means time.Now.
	Clock func() time.Time
	// Metrics receives the gate.* instrument family; may be nil.
	Metrics *metrics.Registry
	// Logger may be nil, which logs nothing.
	Logger *slog.Logger
}

// Gateway is one HTTP front door over one site proxy.
type Gateway struct {
	site     string
	service  string
	tgs      *ticket.GrantingService
	admit    *admission
	users    *limiter
	groups   *limiter
	logins   *limiter
	quota    *quota
	clients  *peerlink.Cache[*pooledClient]
	network  transport.Network
	proxy    string
	timeouts RouteTimeouts
	maxBody  int64
	clock    func() time.Time
	reg      *metrics.Registry
	log      *slog.Logger
	mux      *http.ServeMux

	// sessionKey seals session tokens; it is random per process (see
	// revocations).
	sessionKey []byte
	sessionTTL time.Duration
	revoked    *revocations

	draining atomic.Bool
	inflight atomic.Int64
}

// New assembles a gateway. Call Run to start its janitors and Drain on
// shutdown.
func New(cfg Config) (*Gateway, error) {
	if cfg.Site == "" || cfg.ProxyAddr == "" || cfg.Network == nil {
		return nil, errors.New("gate: Site, ProxyAddr and Network are required")
	}
	if cfg.TGS == nil {
		return nil, errors.New("gate: a ticket granting service is required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	sessionTTL := cfg.SessionTTL
	if sessionTTL <= 0 {
		sessionTTL = time.Hour
	}
	if t := cfg.TGS.TicketLifetime(); t > 0 && t < sessionTTL {
		// A session must not outlive the ticket it carries.
		sessionTTL = t
	}
	sessionKey, err := ticket.NewKey()
	if err != nil {
		return nil, err
	}
	limits := cfg.Limits.WithDefaults()
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 8 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	g := &Gateway{
		site:     cfg.Site,
		service:  core.ServiceName(cfg.Site),
		tgs:      cfg.TGS,
		admit:    newAdmission(cfg.Admission, cfg.Metrics),
		users:    newLimiter(limits.UserRate, limits.UserBurst, clock),
		groups:   newLimiter(limits.GroupRate, limits.GroupBurst, clock),
		logins:   newLimiter(limits.LoginRate, limits.LoginBurst, clock),
		quota:    newQuota(limits.MaxJobsPerUser),
		network:  cfg.Network,
		proxy:    cfg.ProxyAddr,
		timeouts: cfg.Timeouts.WithDefaults(),
		maxBody:  maxBody,
		clock:    clock,
		reg:      cfg.Metrics,
		log:      log.With("component", "gate."+cfg.Site),

		sessionKey: sessionKey,
		sessionTTL: sessionTTL,
		revoked:    newRevocations(),
	}
	poolClients := cfg.PoolClients
	if poolClients <= 0 {
		poolClients = 64
	}
	g.clients = peerlink.NewCache(peerlink.CacheConfig{
		MaxTunnels: poolClients,
		// A failed login is one user's bad or expired ticket, not news
		// about the proxy: it must not fast-fail that user's next
		// request.
		BreakerThreshold: -1,
		Now:              clock,
	}, g.dialClient, g.evictClient)
	g.mux = g.routes()
	return g, nil
}

// routes builds the REST surface. Authenticated routes are wrapped by
// requireSession, which also applies the per-user/per-group buckets.
func (g *Gateway) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/login", g.handleLogin)
	mux.Handle("POST /api/logout", g.requireSession(http.HandlerFunc(g.handleLogout)))
	mux.Handle("GET /{$}", g.requireSession(http.HandlerFunc(g.handleIndex)))
	mux.Handle("GET /api/grid", g.requireSession(http.HandlerFunc(g.handleGrid)))
	mux.Handle("GET /api/members", g.requireSession(http.HandlerFunc(g.handleMembers)))
	mux.Handle("GET /api/resources", g.requireSession(http.HandlerFunc(g.handleResources)))
	mux.Handle("GET /api/jobs", g.requireSession(http.HandlerFunc(g.handleJobs)))
	mux.Handle("POST /api/jobs", g.requireSession(http.HandlerFunc(g.handleSubmit)))
	mux.Handle("GET /api/jobs/{id}", g.requireSession(http.HandlerFunc(g.handleJob)))
	mux.Handle("DELETE /api/jobs/{id}", g.requireSession(http.HandlerFunc(g.handleCancel)))
	mux.Handle("GET /api/jobs/{id}/outputs", g.requireSession(http.HandlerFunc(g.handleOutputs)))
	mux.Handle("POST /api/files", g.requireSession(http.HandlerFunc(g.handleFilePut)))
	mux.Handle("GET /api/files/{hash}", g.requireSession(http.HandlerFunc(g.handleFileGet)))
	mux.Handle("GET /api/files/{hash}/stat", g.requireSession(http.HandlerFunc(g.handleFileStat)))
	return mux
}

// ServeHTTP runs the gateway's outer pipeline: drain check, admission
// control, per-route deadline, then the routed handler. Session and
// rate-limit checks live inside requireSession so login (which has no
// session yet) still passes through admission.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		// The liveness probe bypasses admission: an overloaded gateway
		// is alive, and shedding the probe would get it killed.
		if g.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	if g.draining.Load() {
		g.reg.Counter(metrics.GateDrainRefused).Inc()
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	queued, release, err := g.admit.admit(r.Context())
	if err != nil {
		// Shed fast: the whole point is that overload answers in
		// microseconds, not after a queueing delay.
		g.reg.Counter(metrics.GateShed).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(g.admit.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "gateway overloaded")
		return
	}
	g.inflight.Add(1)
	defer func() {
		release()
		g.inflight.Add(-1)
	}()
	if queued {
		g.reg.Counter(metrics.GateQueued).Inc()
	}
	g.reg.Counter(metrics.GateRequests).Inc()

	ctx, cancel := context.WithTimeout(r.Context(), g.timeoutFor(r))
	defer cancel()
	sw := &statusWriter{ResponseWriter: w}
	g.mux.ServeHTTP(sw, r.WithContext(ctx))
	switch {
	case sw.status() < 400:
		g.reg.Counter(metrics.GateServed).Inc()
	case sw.status() == http.StatusGatewayTimeout:
		g.reg.Counter(metrics.GateTimeouts).Inc()
		g.reg.Counter(metrics.GateErrors).Inc()
	case sw.status() == http.StatusTooManyRequests,
		sw.status() == http.StatusUnauthorized,
		sw.status() == http.StatusForbidden:
		// Counted at their refusal sites.
	default:
		g.reg.Counter(metrics.GateErrors).Inc()
	}
}

// timeoutFor picks the route class deadline.
func (g *Gateway) timeoutFor(r *http.Request) time.Duration {
	switch {
	case r.URL.Path == "/api/login" || r.URL.Path == "/api/logout":
		return g.timeouts.Login
	case r.Method == http.MethodPost && r.URL.Path == "/api/jobs":
		return g.timeouts.Submit
	case strings.HasPrefix(r.URL.Path, "/api/files"):
		return g.timeouts.Data
	}
	return g.timeouts.Query
}

// requireSession authenticates the request (bearer token or cookie),
// enforces revocation and expiry, applies the per-user and per-group
// buckets, and stashes the claims in the request context.
func (g *Gateway) requireSession(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		token := bearerToken(r)
		if token == "" {
			g.reg.Counter(metrics.GateAuthFailures).Inc()
			writeError(w, http.StatusUnauthorized, "no session: POST /api/login first")
			return
		}
		sc, sealed, err := g.openSession(token)
		if err != nil {
			g.reg.Counter(metrics.GateAuthFailures).Inc()
			writeError(w, http.StatusUnauthorized, "invalid or expired session")
			return
		}
		if !g.users.allow("u:" + sc.User) {
			g.reg.Counter(metrics.GateRateLimited).Inc()
			w.Header().Set("Retry-After", strconv.Itoa(g.admit.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, "per-user rate limit exceeded")
			return
		}
		for i, group := range sc.Groups {
			if !g.groups.allow("g:" + group) {
				// Refund the tokens sibling buckets already gave up: a
				// refused request must not drain the user's budget or
				// that of groups that would have allowed it.
				g.users.refund("u:" + sc.User)
				for _, earlier := range sc.Groups[:i] {
					g.groups.refund("g:" + earlier)
				}
				g.reg.Counter(metrics.GateRateLimited).Inc()
				w.Header().Set("Retry-After", strconv.Itoa(g.admit.retryAfterSeconds()))
				writeError(w, http.StatusTooManyRequests, "group "+group+" rate limit exceeded")
				return
			}
		}
		next.ServeHTTP(w, r.WithContext(withSession(r.Context(), sc, sealed)))
	})
}

// mintSession seals a login's Session claim, carrying the service ticket
// the gateway presents to the proxy on the user's behalf, as a base64url
// token for the cookie and the Authorization header.
func (g *Gateway) mintSession(user string, groups []string, tick []byte) (string, time.Time) {
	expiry := g.clock().Add(g.sessionTTL)
	sealed := ticket.Seal(g.sessionKey, ticket.Claims{
		Purpose: ticket.Session,
		User:    user,
		Groups:  groups,
		Expiry:  expiry,
		Inner:   tick,
	})
	return base64.RawURLEncoding.EncodeToString(sealed), expiry
}

// openSession opens a token as a Session claim and returns it with the
// sealed bytes it decoded to. Forged, malformed, expired and revoked
// tokens all fail alike. The decoding is strict, so a token has one
// spelling.
func (g *Gateway) openSession(token string) (ticket.Claims, []byte, error) {
	sealed, err := base64.RawURLEncoding.Strict().DecodeString(token)
	if err != nil {
		return ticket.Claims{}, nil, ErrNoSession
	}
	sc, err := ticket.Open(g.sessionKey, ticket.Session, sealed, g.clock())
	if err != nil || g.revoked.has(sealed) {
		return ticket.Claims{}, nil, ErrNoSession
	}
	return sc, sealed, nil
}

// bearerToken extracts the session token from the Authorization header
// or the session cookie.
func bearerToken(r *http.Request) string {
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		return strings.TrimPrefix(h, "Bearer ")
	}
	if c, err := r.Cookie(SessionCookie); err == nil {
		return c.Value
	}
	return ""
}

// Run starts the gateway's janitors (session denylist pruning, rate
// bucket pruning, pooled-client idle sweep) and blocks until ctx is
// done.
func (g *Gateway) Run(ctx context.Context) {
	tick := time.NewTicker(30 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			now := g.clock()
			g.revoked.prune(now)
			g.users.prune(now)
			g.groups.prune(now)
			g.logins.prune(now)
			g.clients.Sweep()
		}
	}
}

// Drain gracefully shuts the gateway down: new requests are refused
// with 503 (Connection: close), in-flight requests run to completion,
// then the pooled grid clients close. It returns ctx.Err() if the
// deadline passes with requests still in flight (they keep their
// clients usable until they finish; the pool closes anyway).
func (g *Gateway) Drain(ctx context.Context) error {
	g.draining.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var err error
wait:
	for g.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		case <-tick.C:
		}
	}
	g.clients.CloseAll()
	return err
}

// InFlight reports requests currently admitted (tests and drain
// diagnostics).
func (g *Gateway) InFlight() int64 { return g.inflight.Load() }

// pooledClient is one user's grid client in the gateway's cache.
type pooledClient struct {
	*grid.Client
	// ticket is the freshest service ticket any checkout presented for
	// this user; the renewal hook re-authenticates with it when the
	// proxy-side session expires mid-connection.
	ticket atomic.Value // []byte
}

// client checks the session user's pooled grid client out, dialing and
// ticket-authenticating on first use. The release func hands it back.
func (g *Gateway) client(ctx context.Context, sc ticket.Claims) (*grid.Client, func(), error) {
	for {
		pc, err := g.clients.Get(ctx, sc.User)
		if err != nil {
			if errors.Is(err, context.Canceled) && g.draining.Load() {
				return nil, nil, ErrDraining // the cache is closed
			}
			return nil, nil, err
		}
		if !pc.Closed() {
			pc.ticket.Store(sc.Inner)
			return pc.Client, func() { g.clients.Release(sc.User, pc) }, nil
		}
		// The connection died underneath the cache: drop it and redial.
		g.clients.Release(sc.User, pc)
		if g.clients.DropIf(sc.User, pc) {
			g.reg.Gauge(metrics.GatePooledClients).Add(-1)
		}
	}
}

// dialClient is the cache's dial func: it connects a fresh client for
// user and logs in with the service ticket of the session that asked
// (the request context carries it), then arms the renewal hook.
func (g *Gateway) dialClient(ctx context.Context, user string) (*pooledClient, error) {
	sc, _, ok := sessionFrom(ctx)
	if !ok {
		return nil, ErrNoSession
	}
	client, err := grid.Dial(ctx, g.network, g.proxy)
	if err != nil {
		return nil, fmt.Errorf("gate: dial proxy for %q: %w", user, err)
	}
	if err := client.LoginWithTicket(ctx, user, sc.Inner); err != nil {
		_ = client.Close()
		return nil, err
	}
	g.reg.Counter(metrics.GatePoolDials).Inc()
	g.reg.Gauge(metrics.GatePooledClients).Add(1)
	pc := &pooledClient{Client: client}
	pc.ticket.Store(sc.Inner)
	client.OnAuthExpired(func(ctx context.Context) error {
		// If the freshest ticket has itself expired the renewal fails
		// and the caller sees 401: time to log in again.
		if err := client.LoginWithTicket(ctx, user, pc.ticket.Load().([]byte)); err != nil {
			return err
		}
		g.reg.Counter(metrics.GateRenewals).Inc()
		return nil
	})
	return pc, nil
}

// evictClient is the cache's evict hook: it runs for every client the
// cache closes (LRU, idle, drain). A drain is not an eviction.
func (g *Gateway) evictClient(string, *pooledClient) {
	g.reg.Gauge(metrics.GatePooledClients).Add(-1)
	if !g.draining.Load() {
		g.reg.Counter(metrics.GatePoolEvictions).Inc()
	}
}

// httpStatusFor maps backend errors to HTTP statuses, preserving the
// proxy's machine-readable classes end to end.
func httpStatusFor(err error) int {
	var re *grid.RemoteError
	switch {
	case errors.Is(err, grid.ErrTicketExpired):
		return http.StatusUnauthorized
	case errors.As(err, &re):
		switch re.Status {
		case proto.StatusUnauthorized, proto.StatusAuthExpired:
			return http.StatusUnauthorized
		case proto.StatusDenied:
			return http.StatusForbidden
		case proto.StatusNotFound:
			return http.StatusNotFound
		case proto.StatusBadRequest:
			return http.StatusBadRequest
		case proto.StatusUnavailable:
			return http.StatusServiceUnavailable
		}
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, grid.ErrAuthFailed):
		return http.StatusUnauthorized
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}

// statusWriter records the response status for outcome metrics.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
	code  int
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the underlying writer, so
// handleFilePut's SetReadDeadline works through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}
