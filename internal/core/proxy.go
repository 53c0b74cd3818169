// Package core implements the paper's primary contribution: the grid proxy
// server. One proxy sits at the border of each site ("This entity acts
// similarly to a gateway, serving as an interconnecting point between the
// sites that make up the computational grid") and provides, in layers:
//
//   - L1 communication: a control protocol and data channels between
//     proxies, multiplexed over a single connection per peer (package
//     tunnel);
//   - L2 security: TLS tunneling of all inter-site traffic with
//     CA-issued host certificates, user authentication (password,
//     signature, or Kerberos-style ticket), and per-user/group permission
//     checks at both the originating and destination proxies. Intra-site
//     traffic stays in the clear by default;
//   - L3 control and monitoring: per-site status collection compiled on
//     demand and spread by gossip, resource location answered by each
//     site for itself, and load-balanced rank placement in two levels:
//     the origin splits ranks across sites from their summaries, and
//     each site places its share on its own nodes (package balance);
//   - L4 MPI support: per-application address spaces with virtual-slave
//     endpoints that multiplex MPI rank traffic through the tunnels,
//     giving unmodified applications the illusion of one virtual cluster.
package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/logging"
	"gridproxy/internal/membership"
	"gridproxy/internal/metrics"
	"gridproxy/internal/monitor"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
)

// Errors returned by the proxy.
var (
	// ErrStopped is returned after Close.
	ErrStopped = errors.New("core: proxy stopped")
	// ErrUnknownPeer is returned for operations naming an unconnected
	// site.
	ErrUnknownPeer = errors.New("core: unknown peer site")
	// ErrUnknownApp is returned for streams referencing an application
	// the proxy has no address space for.
	ErrUnknownApp = errors.New("core: unknown application")
	// ErrUnknownNode is returned when a spawn names a node the proxy
	// does not manage.
	ErrUnknownNode = errors.New("core: unknown node")
)

// NodeHandle is the proxy's view of one node agent in its site.
// node.Agent implements it; tests may substitute fakes.
type NodeHandle interface {
	Name() string
	Speed() float64
	Stats() monitor.NodeStats
	Spawn(ctx context.Context, spec node.SpawnSpec) (string, error)
	Wait(ctx context.Context, appID string, rank int) error
	Kill(appID string, rank int) error
	Release(appID string, rank int)
}

// Capabilities this build announces in Hello.
var defaultCapabilities = []string{"mpi", "ticket"}

// Config assembles a Proxy.
type Config struct {
	// Site is this proxy's site name (unique across the grid).
	Site string
	// WANAddr is where this proxy listens for other proxies.
	WANAddr string
	// LocalAddr is where this proxy listens inside its site. Empty
	// disables the local listener (nodes attached in-process only).
	LocalAddr string
	// WAN is the inter-site network, normally transport.TLS over TCP.
	// The proxy trusts WAN to authenticate peers (host authentication).
	WAN transport.Network
	// Local is the site-local network (plaintext by default, matching
	// the paper's assumption that intra-site traffic is already safe).
	Local transport.Network
	// Users is the grid's user store (replicated configuration).
	Users *auth.Store
	// TGS, if set, lets this proxy issue Kerberos-style tickets; every
	// proxy gets a Validator for its own service name "proxy:<site>".
	TGS *ticket.GrantingService
	// TicketKey is this proxy's service key (from TGS.RegisterService);
	// required when tickets are used for authentication.
	TicketKey []byte
	// TicketSkew is the clock-skew tolerance the ticket validator
	// applies to expiry checks, absorbing drift between this host and
	// the host that granted the ticket (e.g. a gridgate). Zero means
	// strict expiry.
	TicketSkew time.Duration
	// Policy is the placement policy; nil means balance.LeastLoaded.
	Policy balance.Policy
	// Lifecycle carries the control-plane timing knobs (RPC and connect
	// deadline, Hello deadline). The zero value uses peerlink defaults;
	// see peerlink.Config.
	Lifecycle peerlink.Config
	// Gossip carries the membership gossip knobs (round interval,
	// fanout, suspicion timing). The zero value uses the GossipConfig
	// defaults; a negative Interval disables the gossip loop.
	Gossip GossipConfig
	// PeerCache carries the connection-cache knobs (max live tunnels,
	// idle close). The zero value uses peerlink.CacheConfig defaults.
	PeerCache peerlink.CacheConfig
	// Jobs carries the job-lifecycle fault-tolerance knobs (orphan
	// grace, terminal-record TTL, reschedule budget). The zero value
	// uses the JobConfig defaults.
	Jobs JobConfig
	// Stage carries the data-plane knobs (store dir and size cap, chunk
	// size, stripes, idle timeout). The zero value uses stage defaults.
	Stage stage.Config
	// Tunnel carries the inter-site session knobs: bond width
	// (BondConns), adaptive-window clamps (WindowMin/WindowMax/BDPGain/
	// MemBudget), and the probe interval. The zero value enables
	// RTT-adaptive flow control with the tunnel defaults; setting an
	// explicit static Window disables adaptation unless Adaptive is also
	// set. Metrics is overridden with the proxy's registry.
	Tunnel tunnel.Config
	// Metrics receives instrument counters; may be nil.
	Metrics *metrics.Registry
	// Logger may be nil.
	Logger *logging.Logger
	// Clock overrides the time source for session-expiry checks,
	// ticket validation, and job-table bookkeeping (terminal stamps,
	// the janitor, the orphan reaper) so tests can drive them. Nil
	// means time.Now.
	Clock func() time.Time
}

// Proxy is one site's border server.
type Proxy struct {
	site      string
	wanAddr   string
	localAddr string
	wan       transport.Network
	local     transport.Network
	users     *auth.Store
	tgs       *ticket.GrantingService
	validator *ticket.Validator
	// sessionKey seals the Session tokens Auth hands out. It is random
	// per process, so a restart ends every session.
	sessionKey []byte
	clock      func() time.Time
	reg        *metrics.Registry
	log        *logging.Logger

	collector *monitor.Collector
	policy    balance.Policy
	lifecycle peerlink.Config
	gossipcfg GossipConfig
	jobcfg    JobConfig
	stagecfg  stage.Config
	tunnelcfg tunnel.Config
	bondReg   *tunnel.BondRegistry
	store     *stage.Store

	// members is the gossip-maintained directory of every site in the
	// grid; cache holds live tunnels to the few in active use. The split
	// is the point: knowing a site exists no longer means holding a
	// connection to it.
	members *membership.Directory
	cache   *peerlink.Cache[*peer]

	wanListener    net.Listener
	localListener  net.Listener
	nodesListener  net.Listener
	spliceListener net.Listener

	mu    sync.Mutex
	nodes map[string]NodeHandle
	// records holds this site's one record per application id; jobs indexes
	// the records' origin parts for listings.
	records map[string]*app
	jobs    jobLogs
	// hostedRanks counts ranks committed here and not yet ended, by origin.
	hostedRanks map[string]int
	held        map[string][]*heldCommit
	probing     map[string]bool // sites with an indirect probe in flight
	fences      []*pendingFence // undelivered split-brain fences
	stopped     bool

	appSeq atomic.Uint64
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// New assembles a proxy but does not start listening; call Start.
func New(cfg Config) (*Proxy, error) {
	if cfg.Site == "" {
		return nil, errors.New("core: empty site name")
	}
	if cfg.WAN == nil || cfg.Local == nil {
		return nil, errors.New("core: both WAN and Local networks are required")
	}
	if cfg.Users == nil {
		return nil, errors.New("core: user store is required")
	}
	policy := cfg.Policy
	if policy == nil {
		policy = balance.LeastLoaded{}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	tunnelcfg := cfg.Tunnel
	if tunnelcfg.Window == 0 && !tunnelcfg.Adaptive {
		// No explicit static window configured: proxies default to the
		// RTT-adaptive window (a fixed window is wrong on any WAN whose
		// bandwidth-delay product it doesn't happen to match).
		tunnelcfg.Adaptive = true
	}
	//lint:allow-background the proxy IS the lifecycle root: every peer
	// session, job, and handler context in the process derives from this one,
	// and Close cancels it.
	ctx, cancel := context.WithCancel(context.Background())
	p := &Proxy{
		site:        cfg.Site,
		wanAddr:     cfg.WANAddr,
		localAddr:   cfg.LocalAddr,
		wan:         cfg.WAN,
		local:       cfg.Local,
		users:       cfg.Users,
		tgs:         cfg.TGS,
		clock:       clock,
		reg:         cfg.Metrics,
		log:         cfg.Logger.Named("proxy." + cfg.Site),
		collector:   monitor.NewCollector(cfg.Site),
		policy:      policy,
		lifecycle:   cfg.Lifecycle.WithDefaults(),
		gossipcfg:   cfg.Gossip.WithDefaults(),
		jobcfg:      cfg.Jobs.WithDefaults(),
		stagecfg:    cfg.Stage.WithDefaults(),
		tunnelcfg:   tunnelcfg,
		bondReg:     tunnel.NewBondRegistry(),
		nodes:       make(map[string]NodeHandle),
		records:     make(map[string]*app),
		hostedRanks: make(map[string]int),
		jobs:        jobLogs{owners: make(map[string]*jobLog), tracked: cfg.Metrics.Gauge(metrics.JobsTracked)},
		held:        make(map[string][]*heldCommit),
		probing:     make(map[string]bool),
		ctx:         ctx,
		cancel:      cancel,
	}
	p.members = membership.New(membership.Config{
		Site:         cfg.Site,
		Addr:         cfg.WANAddr,
		SuspectAfter: p.gossipcfg.SuspectAfter,
		DeadAfter:    p.gossipcfg.DeadAfter,
		VouchWindow:  p.gossipcfg.VouchWindow,
		Metrics:      cfg.Metrics,
		Logger:       cfg.Logger.Named("member." + cfg.Site),
	})
	cachecfg := cfg.PeerCache
	cachecfg.Metrics = cfg.Metrics
	p.cache = peerlink.NewCache[*peer](cachecfg, p.dialOnDemand, p.evictPeer)
	if cfg.TGS != nil && cfg.TicketKey != nil {
		p.validator = ticket.NewValidator(ServiceName(cfg.Site), cfg.TicketKey, cfg.Metrics).
			WithValidatorClock(clock).
			WithValidatorSkew(cfg.TicketSkew)
	}
	var err error
	if p.sessionKey, err = ticket.NewKey(); err != nil {
		cancel()
		return nil, err
	}
	if p.store, err = stage.NewStore(p.stagecfg, cfg.Metrics); err != nil {
		cancel()
		return nil, err
	}
	return p, nil
}

// Store exposes this site's content-addressed blob store.
func (p *Proxy) Store() *stage.Store { return p.store }

// ServiceName returns the ticket service name of a site's proxy.
func ServiceName(site string) string { return "proxy:" + site }

// Site returns this proxy's site name.
func (p *Proxy) Site() string { return p.site }

// WANAddr returns the advertised inter-site address.
func (p *Proxy) WANAddr() string { return p.wanAddr }

// LocalAddr returns the site-local service address.
func (p *Proxy) LocalAddr() string { return p.localAddr }

// Start begins listening on the WAN and (if configured) local addresses.
func (p *Proxy) Start() error {
	if p.wanAddr != "" {
		ln, err := p.wan.Listen(p.wanAddr)
		if err != nil {
			return fmt.Errorf("core: wan listen: %w", err)
		}
		p.wanListener = ln
		p.wg.Add(1)
		go p.acceptWAN(ln)
	}
	if p.localAddr != "" {
		if err := p.startLocalListeners(); err != nil {
			if p.wanListener != nil {
				_ = p.wanListener.Close()
			}
			return err
		}
	}
	// Seed the directory with a first local summary so the very first
	// gossip rounds already carry it; the loop republishes on a slow
	// cadence.
	p.members.SetLocalSummary(p.LocalSummary().ToStatus())
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.cache.Run(p.ctx)
	}()
	if p.gossipcfg.Interval > 0 {
		p.wg.Add(1)
		go p.gossipLoop()
	}
	if p.jobcfg.OrphanGrace > 0 {
		p.wg.Add(1)
		go p.orphanReaper()
	}
	if p.jobcfg.TerminalTTL > 0 {
		p.wg.Add(1)
		go p.jobsJanitor()
	}
	p.wg.Add(1)
	go p.fenceDeliverer()
	p.log.Info("proxy started", "wan", p.wanAddr, "local", p.localAddr)
	return nil
}

// Close stops listeners, peers, and address spaces.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return nil
	}
	p.stopped = true
	listeners := []net.Listener{p.wanListener, p.localListener, p.nodesListener, p.spliceListener}
	for _, a := range p.records {
		listeners = append(listeners, a.listeners...)
	}
	p.mu.Unlock()

	p.cancel()
	for _, ln := range listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	p.cache.CloseAll()
	p.wg.Wait()
	p.log.Info("proxy stopped")
	return nil
}

// AttachNode registers a node agent of this site with the proxy.
func (p *Proxy) AttachNode(h NodeHandle) {
	p.mu.Lock()
	p.nodes[h.Name()] = h
	p.mu.Unlock()
	p.collector.Report(h.Stats())
}

// nodeHandle looks a node up.
func (p *Proxy) nodeHandle(name string) (NodeHandle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h, ok := p.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q in site %s", ErrUnknownNode, name, p.site)
	}
	return h, nil
}

// LocalSummary re-samples every attached node into the collector — the
// proxy "responsible for the collection and control of the site where it
// is located" — and compiles this site's current status, with the ranks
// it runs counted by origin.
func (p *Proxy) LocalSummary() monitor.SiteSummary {
	p.mu.Lock()
	handles := make([]NodeHandle, 0, len(p.nodes))
	for _, h := range p.nodes {
		handles = append(handles, h)
	}
	p.mu.Unlock()
	for _, h := range handles {
		p.collector.Report(h.Stats())
	}
	sum := p.collector.Summary()
	sum.Hosted = p.hostedProcs()
	return sum
}

// hostedProcs reports the running ranks this site hosts for each origin.
func (p *Proxy) hostedProcs() []proto.HostedProcs {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]proto.HostedProcs, 0, len(p.hostedRanks))
	for origin, n := range p.hostedRanks {
		out = append(out, proto.HostedProcs{Origin: origin, Procs: uint32(n)})
	}
	return out
}

// countHosted adds n committed ranks (negative: ended) to an origin's
// count: a summary reads it without walking every record.
func (p *Proxy) countHosted(origin string, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hostedRanks[origin] += n; p.hostedRanks[origin] <= 0 {
		delete(p.hostedRanks, origin)
	}
}

// localCandidates lists this site's nodes with fresh stats, sorted by
// name: what the site places its own share of a job on.
func (p *Proxy) localCandidates() []balance.NodeInfo {
	p.mu.Lock()
	out := make([]balance.NodeInfo, 0, len(p.nodes))
	for _, h := range p.nodes {
		stats := h.Stats()
		out = append(out, balance.NodeInfo{
			Name:      h.Name(),
			Site:      p.site,
			Speed:     h.Speed(),
			Running:   stats.Procs,
			RAMFreeMB: stats.RAMFreeMB,
			Load1:     stats.Load1,
		})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Candidates lists what placement chooses from, sorted by site: this
// site's nodes with fresh stats, and for every other site the directory
// holds up and has a summary of, NodesUp candidates with that site's mean
// speed and the running processes and load others put there. Our own
// ranks there are left out: they churn faster than summaries are
// published, and a snapshot of them would steer placement by jobs already
// ended. Which node runs a rank is that site's choice (prepareSpawn), so
// its candidates have no name. A site the directory holds dead offers
// nothing, tunnel or no tunnel.
func (p *Proxy) Candidates() []balance.NodeInfo {
	out := p.localCandidates()
	for _, e := range p.members.Entries() {
		s := e.Summary
		if e.Site == p.site || e.State == membership.Dead || !e.HasSummary || s.NodesUp == 0 {
			continue
		}
		others := int(s.RunningProcs)
		for _, h := range s.Hosted {
			if h.Origin == p.site {
				others = max(others-int(h.Procs), 0)
			}
		}
		load := s.Load1
		if s.RunningProcs > 0 {
			load *= float64(others) / float64(s.RunningProcs)
		}
		up := int(s.NodesUp)
		running, extra := others/up, others%up
		for i := 0; i < up; i++ {
			c := balance.NodeInfo{
				Site:      e.Site,
				Speed:     s.Speed / float64(up),
				Running:   running,
				RAMFreeMB: s.RAMFreeMB / int64(up),
				Load1:     load,
			}
			if i < extra {
				c.Running++
			}
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Resources lists the resources of one site ("" means this one) as that
// site reports them from its own nodes; kind and "key=value" attrs filter.
func (p *Proxy) Resources(ctx context.Context, site, kind string, attrs []string) ([]proto.Resource, error) {
	if site == "" || site == p.site {
		return p.localResources(kind, attrs), nil
	}
	pr, err := p.peerFor(ctx, site)
	if err != nil {
		return nil, err
	}
	defer p.releasePeer(pr)
	reply, err := p.callPeer(ctx, pr, &proto.RegistryQuery{Kind: kind, Attrs: attrs})
	if err != nil {
		return nil, err
	}
	rr, ok := reply.(*proto.RegistryReply)
	if !ok {
		return nil, fmt.Errorf("core: resource query to %s: unexpected reply %T", site, reply)
	}
	return rr.Resources, nil
}

// localResources renders this site's nodes as resources of kind "node",
// keeping those that match kind ("" for any) and carry every attr.
func (p *Proxy) localResources(kind string, attrs []string) []proto.Resource {
	if kind != "" && kind != "node" {
		return nil
	}
	var out []proto.Resource
	for _, c := range p.localCandidates() {
		res := proto.Resource{Name: c.Name, Kind: "node", Site: p.site, Attrs: []string{
			fmt.Sprintf("load1=%g", c.Load1),
			fmt.Sprintf("ram_mb=%d", c.RAMFreeMB),
			fmt.Sprintf("running=%d", c.Running),
			fmt.Sprintf("speed=%g", c.Speed),
		}}
		missing := func(kv string) bool { return !slices.Contains(res.Attrs, kv) }
		if !slices.ContainsFunc(attrs, missing) {
			out = append(out, res)
		}
	}
	return out
}

// newAppID mints a site-unique application id.
func (p *Proxy) newAppID() string {
	//lint:allow-wallclock uniqueness entropy across restarts, not a timestamp; a frozen test clock would collide ids
	return fmt.Sprintf("%s-%d-%d", p.site, time.Now().UnixNano(), p.appSeq.Add(1))
}

// tunnelConfig is the session config proxies use between sites.
func (p *Proxy) tunnelConfig() tunnel.Config {
	cfg := p.tunnelcfg
	cfg.Metrics = p.reg
	return cfg
}
