// Command gridproxyd runs a site's border proxy: the TLS-tunneled
// inter-site endpoint, the site-local client/node/splice services, the
// status collector, rank placement, and (optionally) the ticket-granting
// service. It serves no HTTP: the grid's web interface is gridgate's.
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
//
// Control-plane timing knob (optional; see internal/peerlink defaults):
//
//	rpc_timeout       = 10s         # deadline of one control RPC, and of one
//	                                 # whole connect (dial, TLS, Hello)
//
// Membership/gossip knobs (all optional; see core.GossipConfig
// defaults). With gossip on, `peers` only needs ONE bootstrap entry: the
// directory learns every other site epidemically and tunnels are dialed
// on demand through the connection cache (peerlink.CacheConfig
// defaults). Every `peers` address is a seed: it is retried by gossip
// rounds for as long as the daemon runs (paced by the cache's dial
// breaker, 500ms doubling to 30s) and never forgotten, so a peer that is
// down at start-up is joined when it comes up.
//
//	gossip_interval   = 1s          # gossip round period (negative disables)
//	summary_every     = 15s         # local status republication cadence
//	dead_after        = 30s         # unrefuted suspicion before dead
//
// Job-lifecycle knobs (all optional; see internal/core defaults):
//
//	orphan_grace      = 45s         # reap hosted apps whose origin link
//	                                 # stays dead this long (negative disables)
//	job_ttl           = 15m         # prune terminal jobs after this long
//	                                 # (negative disables)
//	reschedule_budget = 2           # site deaths survived per job before
//	                                 # the launch fails (negative disables)
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
//
// A key the daemon does not read is refused at start-up, by name.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/config"
	"gridproxy/internal/core"
	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/programs"
	"gridproxy/internal/stage"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridproxyd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	flags := flag.NewFlagSet("gridproxyd", flag.ExitOnError)
	configPath := flags.String("config", "gridproxy.conf", "configuration file")
	logLevel := flags.String("log", "info", "log level (debug|info|warn|error)")
	if err := flags.Parse(args); err != nil {
		return err
	}

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
	usersPath := cfg.Get("users", "users.conf")
	policyName := cfg.Get("policy", "least-loaded")
	lifecycle, err := lifecycleFromConfig(cfg)
	if err != nil {
		return err
	}
	jobs, err := jobsFromConfig(cfg)
	if err != nil {
		return err
	}
	gossip, err := gossipFromConfig(cfg)
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
	ticketSkew, err := cfg.Duration("ticket_skew", 0)
	if err != nil {
		return err
	}
	secretPath := cfg.Get("ticket_secret", "")
	wanAddr := cfg.Get("wan_addr", "0.0.0.0:7100")
	localAddr := cfg.Get("local_addr", "127.0.0.1:7200")
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
	peers := cfg.Get("peers", "")
	if err := cfg.Unread(); err != nil {
		return err
	}

	authority, err := ca.Load(caDir)
	if err != nil {
		return fmt.Errorf("load CA: %w", err)
	}
	cred, err := ca.LoadCredential(caDir, certName)
	if err != nil {
		return fmt.Errorf("load host credential: %w", err)
	}
	users, err := config.LoadUsers(usersPath)
	if err != nil {
		return err
	}
	policy, err := balance.New(policyName, time.Now().UnixNano())
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()
	local := transport.NewLabelTCP()
	// Deferred before the proxy's Close, so it runs after it: the shared
	// label listener closes once the proxy has let go of its labels.
	defer local.Close()
	wan := transport.NewTLS(transport.TCP{}, cred, authority.CertPool(), reg)

	// With a shared ticket secret, this proxy runs the TGS with
	// deterministically derived keys: a gridgate (or another proxy)
	// started from the same secret grants tickets this proxy validates,
	// with no key exchange beyond the secret file itself.
	var tgs *ticket.GrantingService
	var ticketKey []byte
	if secretPath != "" {
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
		WANAddr:    wanAddr,
		LocalAddr:  localAddr,
		WAN:        wan,
		Local:      local,
		Users:      users,
		TGS:        tgs,
		TicketKey:  ticketKey,
		TicketSkew: ticketSkew,
		Policy:     policy,
		Lifecycle:  lifecycle,
		Gossip:     gossip,
		Jobs:       jobs,
		Stage:      stagecfg,
		Tunnel:     tunnel.Config{BondConns: bondConns},
		Metrics:    reg,
		Logger:     log,
	})
	if err != nil {
		return err
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
	if peers != "" {
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

	log.Info("gridproxyd running", "site", siteName)
	<-ctx.Done()
	log.Info("shutting down")
	return nil
}

// lifecycleFromConfig reads the control-plane timing knob. An absent key
// stays zero so peerlink's default applies; a negative rpc_timeout
// disables the default deadline.
func lifecycleFromConfig(cfg *config.Config) (peerlink.Config, error) {
	rpcTimeout, err := cfg.Duration("rpc_timeout", 0)
	return peerlink.Config{RPCTimeout: rpcTimeout}, err
}

// gossipFromConfig reads the membership-gossip knobs. Absent keys stay
// zero so the GossipConfig defaults apply; a negative gossip_interval
// disables the loop.
func gossipFromConfig(cfg *config.Config) (core.GossipConfig, error) {
	var gc core.GossipConfig
	var err error
	if gc.Interval, err = cfg.Duration("gossip_interval", 0); err != nil {
		return gc, err
	}
	if gc.SummaryEvery, err = cfg.Duration("summary_every", 0); err != nil {
		return gc, err
	}
	if gc.DeadAfter, err = cfg.Duration("dead_after", 0); err != nil {
		return gc, err
	}
	return gc, nil
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
	return jc, nil
}
