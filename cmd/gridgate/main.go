// Command gridgate runs the grid's multi-tenant HTTP front door: a REST
// gateway over one site proxy with ticket-backed sessions, per-user and
// per-group rate limits, concurrent-job quotas, load-shedding admission
// control, and graceful drain on SIGTERM.
//
// It runs the ticket granting service in-process. To interoperate with
// a separately running gridproxyd, both processes must point
// ticket_secret at the same secret file: service keys derive
// deterministically from it, so the ticket the gateway grants is the
// ticket the proxy validates.
//
// Configuration ("key = value" file, see -config):
//
//	site          = sitea            # fronted proxy's site name
//	proxy_addr    = 127.0.0.1:7200   # proxy's site-local client service
//	gate_addr     = 127.0.0.1:7400   # HTTP listen address
//	users         = users.conf       # users/permissions file (same as proxy)
//	ticket_secret = gate.secret      # shared-secret file (required)
//	session_ttl   = 1h               # session lifetime (capped by ticket TTL)
//	tgt_ttl       = 10h              # sign-on lifetime
//	ticket_ttl    = 1h               # service-ticket lifetime
//	ticket_skew   = 0s               # clock-skew tolerance for expiry checks
//
// Admission and fairness knobs (all optional; see internal/gate
// defaults):
//
//	max_inflight  = 256              # concurrent-request capacity
//	max_queue     = 256              # waiters beyond capacity before shedding
//	queue_wait    = 1s               # longest a queued request waits
//	retry_after   = 1s               # Retry-After hint on 429
//	user_rate     = 50               # requests/s per user (negative disables)
//	group_rate    = 200              # requests/s per group
//	login_rate    = 1                # sign-on attempts/s per user name
//	max_jobs      = 16               # concurrent jobs per user
//	timeout_login = 10s              # per-route deadlines
//	timeout_submit = 60s
//	timeout_query = 10s
//	timeout_data  = 30s
//	max_body      = 8388608          # request-body cap (file puts)
//	drain_timeout = 30s              # SIGTERM: in-flight completion budget
//
// A key the daemon does not read is refused at start-up, by name.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridproxy/internal/config"
	"gridproxy/internal/core"
	"gridproxy/internal/gate"
	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridgate:", err)
		os.Exit(1)
	}
}

func run() error {
	configPath := flag.String("config", "gridgate.conf", "configuration file")
	logLevel := flag.String("log", "info", "log level (debug|info|warn|error)")
	flag.Parse()

	level, err := logging.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	log := logging.New("gridgate", logging.WithLevel(level))

	cfg, err := config.LoadFile(*configPath)
	if err != nil {
		return err
	}
	siteName := cfg.Get("site", "")
	if siteName == "" {
		return fmt.Errorf("config: site is required")
	}
	usersPath := cfg.Get("users", "users.conf")
	secretPath := cfg.Get("ticket_secret", "")
	if secretPath == "" {
		return fmt.Errorf("config: ticket_secret is required (shared with gridproxyd)")
	}
	tgtTTL, err := cfg.Duration("tgt_ttl", ticket.DefaultTGTLifetime)
	if err != nil {
		return err
	}
	ticketTTL, err := cfg.Duration("ticket_ttl", ticket.DefaultTicketLifetime)
	if err != nil {
		return err
	}
	skew, err := cfg.Duration("ticket_skew", 0)
	if err != nil {
		return err
	}
	gcfg, err := gateConfigFrom(cfg)
	if err != nil {
		return err
	}
	gcfg.ProxyAddr = cfg.Get("proxy_addr", "127.0.0.1:7200")
	gateAddr := cfg.Get("gate_addr", "127.0.0.1:7400")
	drainTimeout, err := cfg.Duration("drain_timeout", 30*time.Second)
	if err != nil {
		return err
	}
	if err := cfg.Unread(); err != nil {
		return err
	}

	users, err := config.LoadUsers(usersPath)
	if err != nil {
		return err
	}
	secret, err := os.ReadFile(secretPath)
	if err != nil {
		return fmt.Errorf("read ticket secret: %w", err)
	}
	reg := metrics.NewRegistry()
	tgs, err := ticket.NewGrantingService(users,
		ticket.WithMasterKey(secret),
		ticket.WithLifetimes(tgtTTL, ticketTTL),
		ticket.WithSkew(skew),
		ticket.WithMetrics(reg))
	if err != nil {
		return err
	}
	// Derive the fronted proxy's service key so GrantTicket knows the
	// service; gridproxyd derives the identical key from the same secret.
	if _, err := tgs.RegisterService(core.ServiceName(siteName)); err != nil {
		return err
	}

	gcfg.Site = siteName
	gcfg.Network = transport.NewLabelTCP()
	gcfg.TGS = tgs
	gcfg.Metrics = reg
	gcfg.Logger = log

	gateway, err := gate.New(gcfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go gateway.Run(ctx)

	server := &http.Server{
		Addr:              gateAddr,
		Handler:           gateway,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	log.Info("gridgate listening", "addr", gateAddr, "site", siteName)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: refuse new work (503 + Connection: close), let
	// in-flight requests finish, close the pooled grid clients, then
	// shut the HTTP server down.
	log.Info("draining", "timeout", drainTimeout)
	//lint:allow-background the signal context is already done; the drain
	// deadline is the process's last clock.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	server.SetKeepAlivesEnabled(false)
	if err := gateway.Drain(drainCtx); err != nil {
		log.Warn("drain deadline passed with requests in flight", "err", err)
	}
	if err := server.Shutdown(drainCtx); err != nil {
		return err
	}
	log.Info("drained cleanly")
	return nil
}

// gateConfigFrom reads the admission, limit and timeout knobs.
// Absent keys stay zero so the gate defaults apply.
func gateConfigFrom(cfg *config.Config) (gate.Config, error) {
	var g gate.Config
	var err error
	if g.SessionTTL, err = cfg.Duration("session_ttl", 0); err != nil {
		return g, err
	}
	if g.Admission.MaxInFlight, err = cfg.Int("max_inflight", 0); err != nil {
		return g, err
	}
	if g.Admission.MaxQueue, err = cfg.Int("max_queue", 0); err != nil {
		return g, err
	}
	if g.Admission.QueueWait, err = cfg.Duration("queue_wait", 0); err != nil {
		return g, err
	}
	if g.Admission.RetryAfter, err = cfg.Duration("retry_after", 0); err != nil {
		return g, err
	}
	if g.Limits.UserRate, err = floatKey(cfg, "user_rate"); err != nil {
		return g, err
	}
	if g.Limits.GroupRate, err = floatKey(cfg, "group_rate"); err != nil {
		return g, err
	}
	if g.Limits.LoginRate, err = floatKey(cfg, "login_rate"); err != nil {
		return g, err
	}
	if g.Limits.MaxJobsPerUser, err = cfg.Int("max_jobs", 0); err != nil {
		return g, err
	}
	if g.Timeouts.Login, err = cfg.Duration("timeout_login", 0); err != nil {
		return g, err
	}
	if g.Timeouts.Submit, err = cfg.Duration("timeout_submit", 0); err != nil {
		return g, err
	}
	if g.Timeouts.Query, err = cfg.Duration("timeout_query", 0); err != nil {
		return g, err
	}
	if g.Timeouts.Data, err = cfg.Duration("timeout_data", 0); err != nil {
		return g, err
	}
	maxBody, err := cfg.Int("max_body", 0)
	if err != nil {
		return g, err
	}
	g.MaxBodyBytes = int64(maxBody)
	return g, nil
}

// floatKey parses an optional float knob; absent keys return 0 so the
// gate defaults apply.
func floatKey(cfg *config.Config, key string) (float64, error) {
	if !cfg.Has(key) {
		return 0, nil
	}
	var v float64
	if _, err := fmt.Sscanf(cfg.Get(key, "0"), "%g", &v); err != nil {
		return 0, fmt.Errorf("config: %s: %w", key, err)
	}
	return v, nil
}
