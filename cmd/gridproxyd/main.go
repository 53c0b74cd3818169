// Command gridproxyd runs a site's border proxy: the TLS-tunneled
// inter-site endpoint, the site-local client/node/splice services, the
// status collector, the scheduler, and (optionally) the web interface and
// the ticket-granting service.
//
// Configuration ("key = value" file, see -config):
//
//	site        = sitea              # this site's name
//	wan_addr    = 0.0.0.0:7100      # inter-site TLS listener
//	local_addr  = 127.0.0.1:7200    # site-local client service
//	                                 # (node reports: port+1, splice: port+2)
//	ca_dir      = certs             # CA directory (ca.crt needed)
//	cert        = proxy.sitea       # host credential name in ca_dir
//	users       = users.conf        # users/permissions file
//	peers       = siteb=10.0.0.2:7100,sitec=10.0.0.3:7100
//	policy      = least-loaded      # round-robin|least-loaded|weighted-speed|random
//	web_addr    = 127.0.0.1:7300    # web interface ("" disables)
//	web_auth    = false             # require a service ticket on the web
//	                                 # interface (needs ticket_secret); keep
//	                                 # web_addr loopback-only when false
//	ticket_secret = gate.secret     # shared-secret file: run the TGS with
//	                                 # deterministic keys so a gridgate
//	                                 # started from the same secret can
//	                                 # grant tickets this proxy validates
//	                                 # ("" keeps tickets disabled)
//	ticket_skew = 0s                # clock-skew tolerance for ticket
//	                                 # expiry checks; set it when the
//	                                 # granting gridgate runs on another
//	                                 # host (match its ticket_skew)
//	nodes       = 4                 # hosted node agents on this proxy host
//	node_speed  = 1.0
//	announce    = 30s               # inventory re-announce interval
//
// Control-plane timing knobs (all optional; see internal/peerlink defaults):
//
//	rpc_timeout       = 10s         # deadline of one control RPC, and of one
//	                                 # whole connect (dial, TLS, Hello)
//	hello_timeout     = 10s         # inbound session identification deadline
//	status_ttl        = 0           # status reads served from summaries this
//	                                 # fresh count as cache hits (0: none do)
//
// Membership/gossip knobs (all optional; see core.GossipConfig and
// peerlink.CacheConfig defaults). With gossip on, `peers` only needs ONE
// bootstrap entry: the directory learns every other site epidemically
// and tunnels are dialed on demand. Every `peers` address is a seed: it
// is retried by gossip rounds for as long as the daemon runs (paced by
// the breaker_* windows) and never forgotten, so a peer that is down at
// start-up is joined when it comes up.
//
//	gossip_interval   = 1s          # gossip round period (negative disables)
//	summary_every     = 15s         # local status republication cadence
//	gossip_fanout     = 3           # targets per round
//	suspect_after     = 60s         # silence before an entry turns suspect
//	dead_after        = 30s         # unrefuted suspicion before dead
//	dead_retention    = 5m          # how long dead entries keep gossiping
//	probe_fanout      = 2           # confirmers asked before a failed
//	                                 # contact escalates (negative: none)
//	vouch_window      = 30s         # direct contact this fresh overrides
//	                                 # a death rumor (negative disables)
//	health_max        = 8           # Lifeguard local-health cap; timeouts
//	                                 # stretch by (1 + score)
//	max_tunnels       = 32          # live-tunnel LRU cap (negative unlimited)
//	idle_close        = 2m          # close tunnels idle this long
//	                                 # (negative disables)
//	breaker_threshold = 3           # consecutive dial failures that open a
//	                                 # peer's circuit (negative disables)
//	breaker_min_open  = 500ms       # first open window, doubled per reopen
//	breaker_max_open  = 30s         # open-window cap
//
// Job-lifecycle knobs (all optional; see internal/core defaults):
//
//	orphan_grace      = 45s         # reap hosted apps whose origin link
//	                                 # stays dead this long (negative disables)
//	job_ttl           = 15m         # prune terminal jobs after this long
//	                                 # (negative disables)
//	reschedule_budget = 2           # site deaths survived per job before
//	                                 # the launch fails (negative disables)
//	fence_retry       = 2s          # redelivery cadence for split-brain
//	                                 # fences to sites still unreachable
//	                                 # (negative disables the deliverer)
//
// Data-plane knobs (all optional; see internal/stage defaults):
//
//	store_dir         = stage       # persist blobs here across restarts
//	                                 # ("" keeps the cache in memory only)
//	store_max_bytes   = 268435456   # staging-cache cap before LRU eviction
//	                                 # (negative disables the cap)
//	chunk_size        = 262144      # transfer checksum/retry unit in bytes
//	stripes           = 4           # parallel streams per pull plan (all of a job's missing inputs)
//
// Tunnel knob (optional). A peer pair's tunnel is as wide as the smaller
// of the two ends' settings; per-stream flow control is RTT-adaptive with
// the internal/tunnel defaults:
//
//	bond_conns        = 1           # parallel connections per peer tunnel
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/config"
	"gridproxy/internal/core"
	"gridproxy/internal/gate"
	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/programs"
	"gridproxy/internal/stage"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
	"gridproxy/internal/webui"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridproxyd:", err)
		os.Exit(1)
	}
}

func run() error {
	configPath := flag.String("config", "gridproxy.conf", "configuration file")
	logLevel := flag.String("log", "info", "log level (debug|info|warn|error)")
	flag.Parse()

	level, err := logging.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	log := logging.New("gridproxyd", logging.WithLevel(level))

	cfg, err := config.LoadFile(*configPath)
	if err != nil {
		return err
	}
	siteName := cfg.Get("site", "")
	if siteName == "" {
		return fmt.Errorf("config: site is required")
	}
	caDir := cfg.Get("ca_dir", "certs")
	certName := cfg.Get("cert", "proxy."+siteName)

	authority, err := ca.Load(caDir)
	if err != nil {
		return fmt.Errorf("load CA: %w", err)
	}
	cred, err := ca.LoadCredential(caDir, certName)
	if err != nil {
		return fmt.Errorf("load host credential: %w", err)
	}
	users, err := config.LoadUsers(cfg.Get("users", "users.conf"))
	if err != nil {
		return err
	}
	policy, err := balance.New(cfg.Get("policy", "least-loaded"), time.Now().UnixNano())
	if err != nil {
		return err
	}

	lifecycle, err := lifecycleFromConfig(cfg)
	if err != nil {
		return err
	}
	jobs, err := jobsFromConfig(cfg)
	if err != nil {
		return err
	}
	gossip, peerCache, err := gossipFromConfig(cfg)
	if err != nil {
		return err
	}
	stagecfg, err := stageFromConfig(cfg)
	if err != nil {
		return err
	}
	bondConns, err := cfg.Int("bond_conns", 0)
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	local := transport.NewLabelTCP()
	wan := transport.NewTLS(transport.TCP{}, cred, authority.CertPool(), reg)

	// With a shared ticket secret, this proxy runs the TGS with
	// deterministically derived keys: a gridgate (or another proxy)
	// started from the same secret grants tickets this proxy validates,
	// with no key exchange beyond the secret file itself.
	var tgs *ticket.GrantingService
	var ticketKey []byte
	ticketSkew, err := cfg.Duration("ticket_skew", 0)
	if err != nil {
		return err
	}
	if secretPath := cfg.Get("ticket_secret", ""); secretPath != "" {
		secret, err := os.ReadFile(secretPath)
		if err != nil {
			return fmt.Errorf("read ticket secret: %w", err)
		}
		tgs, err = ticket.NewGrantingService(users, ticket.WithMasterKey(secret), ticket.WithMetrics(reg))
		if err != nil {
			return err
		}
		if ticketKey, err = tgs.RegisterService(core.ServiceName(siteName)); err != nil {
			return err
		}
	}

	proxy, err := core.New(core.Config{
		Site:       siteName,
		WANAddr:    cfg.Get("wan_addr", "0.0.0.0:7100"),
		LocalAddr:  cfg.Get("local_addr", "127.0.0.1:7200"),
		WAN:        wan,
		Local:      local,
		Users:      users,
		TGS:        tgs,
		TicketKey:  ticketKey,
		TicketSkew: ticketSkew,
		Policy:     policy,
		Lifecycle:  lifecycle,
		Gossip:     gossip,
		PeerCache:  peerCache,
		Jobs:       jobs,
		Stage:      stagecfg,
		Tunnel:     tunnel.Config{BondConns: bondConns},
		Metrics:    reg,
		Logger:     log,
	})
	if err != nil {
		return err
	}

	// Hosted node agents: the simplest deployment runs the site's
	// compute agents inside the proxy host.
	nodes, err := cfg.Int("nodes", 0)
	if err != nil {
		return err
	}
	speed := 1.0
	if cfg.Has("node_speed") {
		if _, err := fmt.Sscanf(cfg.Get("node_speed", "1.0"), "%g", &speed); err != nil {
			return fmt.Errorf("config: node_speed: %w", err)
		}
	}
	for i := 0; i < nodes; i++ {
		agent := node.New(fmt.Sprintf("%s-n%d", siteName, i), siteName, local,
			node.WithHW(node.HWProfile{Speed: speed, RAMMB: 2048, DiskMB: 64 << 10, RAMPerProcMB: 64}),
			node.WithLogger(log))
		programs.RegisterAll(agent)
		proxy.AttachNode(agent)
	}

	if err := proxy.Start(); err != nil {
		return err
	}
	defer proxy.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Connect to configured peers.
	if peers := cfg.Get("peers", ""); peers != "" {
		for _, entry := range strings.Split(peers, ",") {
			name, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
			if !ok {
				return fmt.Errorf("config: peers entry %q must be site=addr", entry)
			}
			if err := proxy.Connect(ctx, name, addr); err != nil {
				log.Warn("peer connect failed (gossip rounds keep retrying the address)", "site", name, "err", err)
			}
		}
	}

	// Periodic inventory re-announce.
	announceEvery, err := cfg.Duration("announce", 30*time.Second)
	if err != nil {
		return err
	}
	go func() {
		ticker := time.NewTicker(announceEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				proxy.AnnounceAll(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()

	// Web interface. The handler itself is unauthenticated, so it either
	// stays loopback-only behind a gridgate (which serves it under /ui/
	// behind the session check) or gets gated here with the ticket
	// validator when web_auth is on.
	if webAddr := cfg.Get("web_addr", ""); webAddr != "" {
		webAuth, err := cfg.Bool("web_auth", false)
		if err != nil {
			return err
		}
		var handler http.Handler = webui.New(proxy)
		if webAuth {
			if tgs == nil || ticketKey == nil {
				return fmt.Errorf("config: web_auth requires ticket_secret")
			}
			handler = gate.TicketAuth(ticket.NewValidator(core.ServiceName(siteName), ticketKey, reg).WithValidatorSkew(ticketSkew), handler)
		}
		server := &http.Server{
			Addr:              webAddr,
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Error("web interface failed", "err", err)
			}
		}()
		defer server.Close()
		log.Info("web interface listening", "addr", webAddr)
	}

	log.Info("gridproxyd running", "site", siteName)
	<-ctx.Done()
	log.Info("shutting down")
	return nil
}

// lifecycleFromConfig reads the control-plane timing knobs. Absent keys
// stay zero so peerlink's defaults apply; a negative rpc_timeout disables
// the default deadline.
func lifecycleFromConfig(cfg *config.Config) (peerlink.Config, error) {
	var lc peerlink.Config
	var err error
	if lc.RPCTimeout, err = cfg.Duration("rpc_timeout", 0); err != nil {
		return lc, err
	}
	if lc.HelloTimeout, err = cfg.Duration("hello_timeout", 0); err != nil {
		return lc, err
	}
	if lc.StatusTTL, err = cfg.Duration("status_ttl", 0); err != nil {
		return lc, err
	}
	return lc, nil
}

// gossipFromConfig reads the membership-gossip and connection-cache
// knobs. Absent keys stay zero so the GossipConfig / CacheConfig
// defaults apply; negative values disable the mechanism.
func gossipFromConfig(cfg *config.Config) (core.GossipConfig, peerlink.CacheConfig, error) {
	var gc core.GossipConfig
	var cc peerlink.CacheConfig
	var err error
	if gc.Interval, err = cfg.Duration("gossip_interval", 0); err != nil {
		return gc, cc, err
	}
	if gc.SummaryEvery, err = cfg.Duration("summary_every", 0); err != nil {
		return gc, cc, err
	}
	if gc.Fanout, err = cfg.Int("gossip_fanout", 0); err != nil {
		return gc, cc, err
	}
	if gc.SuspectAfter, err = cfg.Duration("suspect_after", 0); err != nil {
		return gc, cc, err
	}
	if gc.DeadAfter, err = cfg.Duration("dead_after", 0); err != nil {
		return gc, cc, err
	}
	if gc.DeadRetention, err = cfg.Duration("dead_retention", 0); err != nil {
		return gc, cc, err
	}
	if gc.ProbeFanout, err = cfg.Int("probe_fanout", 0); err != nil {
		return gc, cc, err
	}
	if gc.VouchWindow, err = cfg.Duration("vouch_window", 0); err != nil {
		return gc, cc, err
	}
	if gc.HealthMax, err = cfg.Int("health_max", 0); err != nil {
		return gc, cc, err
	}
	if cc.MaxTunnels, err = cfg.Int("max_tunnels", 0); err != nil {
		return gc, cc, err
	}
	if cc.IdleClose, err = cfg.Duration("idle_close", 0); err != nil {
		return gc, cc, err
	}
	if cc.BreakerThreshold, err = cfg.Int("breaker_threshold", 0); err != nil {
		return gc, cc, err
	}
	if cc.BreakerMinOpen, err = cfg.Duration("breaker_min_open", 0); err != nil {
		return gc, cc, err
	}
	if cc.BreakerMaxOpen, err = cfg.Duration("breaker_max_open", 0); err != nil {
		return gc, cc, err
	}
	return gc, cc, nil
}

// stageFromConfig reads the data-plane knobs. Absent keys stay zero so
// stage's defaults apply; a negative store_max_bytes removes the cap.
func stageFromConfig(cfg *config.Config) (stage.Config, error) {
	var sc stage.Config
	sc.Dir = cfg.Get("store_dir", "")
	maxBytes, err := cfg.Int("store_max_bytes", 0)
	if err != nil {
		return sc, err
	}
	sc.MaxBytes = int64(maxBytes)
	if sc.ChunkSize, err = cfg.Int("chunk_size", 0); err != nil {
		return sc, err
	}
	if sc.Stripes, err = cfg.Int("stripes", 0); err != nil {
		return sc, err
	}
	return sc, nil
}

// jobsFromConfig reads the job-lifecycle knobs. Absent keys stay zero so
// core's defaults apply; negative values disable the mechanism.
func jobsFromConfig(cfg *config.Config) (core.JobConfig, error) {
	var jc core.JobConfig
	var err error
	if jc.OrphanGrace, err = cfg.Duration("orphan_grace", 0); err != nil {
		return jc, err
	}
	if jc.TerminalTTL, err = cfg.Duration("job_ttl", 0); err != nil {
		return jc, err
	}
	if jc.RescheduleBudget, err = cfg.Int("reschedule_budget", 0); err != nil {
		return jc, err
	}
	if jc.FenceRetry, err = cfg.Duration("fence_retry", 0); err != nil {
		return jc, err
	}
	return jc, nil
}
