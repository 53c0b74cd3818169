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
//     demand, a resource registry, and a load-balancing scheduler;
//   - L4 MPI support: per-application address spaces with virtual-slave
//     endpoints that multiplex MPI rank traffic through the tunnels,
//     giving unmodified applications the illusion of one virtual cluster.
package core

import (
	"context"
	"errors"
	"fmt"
	"net"
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
	"gridproxy/internal/registry"
	"gridproxy/internal/scheduler"
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
var defaultCapabilities = []string{"mpi", "ticket", "registry"}

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
	// deadline, Hello deadline, status staleness budget). The zero value
	// uses peerlink defaults; see peerlink.Config.
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
	clock     func() time.Time
	reg       *metrics.Registry
	log       *logging.Logger

	collector *monitor.Collector
	global    *monitor.Global
	resources *registry.Registry
	sched     *scheduler.Scheduler
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

	mu      sync.Mutex
	nodes   map[string]NodeHandle
	apps    map[string]*addressSpace
	jobs    map[string]*jobState
	hosted  map[string]*hostedApp
	held    map[string][]*heldCommit
	probing map[string]bool // sites with an indirect probe in flight
	fences  []*pendingFence // undelivered split-brain fences
	stopped bool

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
		site:      cfg.Site,
		wanAddr:   cfg.WANAddr,
		localAddr: cfg.LocalAddr,
		wan:       cfg.WAN,
		local:     cfg.Local,
		users:     cfg.Users,
		tgs:       cfg.TGS,
		clock:     clock,
		reg:       cfg.Metrics,
		log:       cfg.Logger.Named("proxy." + cfg.Site),
		collector: monitor.NewCollector(cfg.Site),
		global:    monitor.NewGlobal(),
		resources: registry.New(),
		lifecycle: cfg.Lifecycle.WithDefaults(),
		gossipcfg: cfg.Gossip.WithDefaults(),
		jobcfg:    cfg.Jobs.WithDefaults(),
		stagecfg:  cfg.Stage.WithDefaults(),
		tunnelcfg: tunnelcfg,
		bondReg:   tunnel.NewBondRegistry(),
		nodes:     make(map[string]NodeHandle),
		apps:      make(map[string]*addressSpace),
		jobs:      make(map[string]*jobState),
		hosted:    make(map[string]*hostedApp),
		held:      make(map[string][]*heldCommit),
		probing:   make(map[string]bool),
		ctx:       ctx,
		cancel:    cancel,
	}
	p.members = membership.New(membership.Config{
		Site:              cfg.Site,
		Addr:              cfg.WANAddr,
		Fanout:            p.gossipcfg.Fanout,
		PushLimit:         p.gossipcfg.PushLimit,
		RetransmitFactor:  p.gossipcfg.RetransmitFactor,
		AntiEntropyFactor: p.gossipcfg.AntiEntropyFactor,
		BootstrapDigests:  p.gossipcfg.BootstrapDigests,
		SuspectAfter:      p.gossipcfg.SuspectAfter,
		DeadAfter:         p.gossipcfg.DeadAfter,
		DeadRetention:     p.gossipcfg.DeadRetention,
		VouchWindow:       p.gossipcfg.VouchWindow,
		HealthMax:         p.gossipcfg.HealthMax,
		Seed:              p.gossipcfg.Seed,
		Metrics:           cfg.Metrics,
		Logger:            cfg.Logger.Named("member." + cfg.Site),
	})
	cachecfg := cfg.PeerCache
	cachecfg.Metrics = cfg.Metrics
	p.cache = peerlink.NewCache[*peer](cachecfg, p.dialOnDemand, p.evictPeer)
	p.sched = scheduler.New(policy, scheduler.NodeSourceFunc(p.Candidates))
	if cfg.TGS != nil && cfg.TicketKey != nil {
		p.validator = ticket.NewValidator(ServiceName(cfg.Site), cfg.TicketKey, cfg.Metrics).
			WithValidatorClock(clock).
			WithValidatorSkew(cfg.TicketSkew)
	}
	store, err := stage.NewStore(p.stagecfg, cfg.Metrics)
	if err != nil {
		cancel()
		return nil, err
	}
	p.store = store
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

// Scheduler exposes the proxy's scheduler (CLI and web interface).
func (p *Proxy) Scheduler() *scheduler.Scheduler { return p.sched }

// Registry exposes the proxy's resource registry view.
func (p *Proxy) Registry() *registry.Registry { return p.resources }

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
	if p.jobcfg.FenceRetry > 0 {
		p.wg.Add(1)
		go p.fenceDeliverer()
	}
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
	apps := make([]*addressSpace, 0, len(p.apps))
	for _, as := range p.apps {
		apps = append(apps, as)
	}
	p.mu.Unlock()

	p.cancel()
	for _, ln := range []net.Listener{p.wanListener, p.localListener, p.nodesListener, p.spliceListener} {
		if ln != nil {
			_ = ln.Close()
		}
	}
	p.cache.CloseAll()
	for _, as := range apps {
		as.close()
	}
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

// DetachNode removes a node (decommissioned or failed).
func (p *Proxy) DetachNode(name string) {
	p.mu.Lock()
	delete(p.nodes, name)
	p.mu.Unlock()
	p.collector.Forget(name)
	p.sched.ReleaseNode(name)
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

// refreshLocalStats re-samples every attached node into the collector —
// the proxy "responsible for the collection and control of the site where
// it is located".
func (p *Proxy) refreshLocalStats() {
	p.mu.Lock()
	handles := make([]NodeHandle, 0, len(p.nodes))
	for _, h := range p.nodes {
		handles = append(handles, h)
	}
	p.mu.Unlock()
	for _, h := range handles {
		p.collector.Report(h.Stats())
	}
}

// LocalSummary compiles this site's current status.
func (p *Proxy) LocalSummary() monitor.SiteSummary {
	p.refreshLocalStats()
	return p.collector.Summary()
}

// Candidates implements the scheduler's node source: fresh local node
// stats plus the last-announced inventory of every peer site.
func (p *Proxy) Candidates() []balance.NodeInfo {
	p.refreshLocalStats()
	var out []balance.NodeInfo
	p.mu.Lock()
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
	for _, res := range p.resources.Lookup(registry.Query{Kind: "node"}) {
		if res.Site == p.site {
			continue
		}
		out = append(out, nodeInfoFromResource(res))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// localInventory renders this site's nodes as registry resources for
// announcement to peers.
func (p *Proxy) localInventory() []registry.Resource {
	p.refreshLocalStats()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]registry.Resource, 0, len(p.nodes))
	for _, h := range p.nodes {
		stats := h.Stats()
		out = append(out, registry.Resource{
			Name: h.Name(),
			Kind: "node",
			Site: p.site,
			Attrs: map[string]string{
				"speed":   fmt.Sprintf("%g", h.Speed()),
				"ram_mb":  fmt.Sprintf("%d", stats.RAMFreeMB),
				"load1":   fmt.Sprintf("%g", stats.Load1),
				"running": fmt.Sprintf("%d", stats.Procs),
			},
		})
	}
	return out
}

// nodeInfoFromResource parses an announced node resource back into
// scheduler input.
func nodeInfoFromResource(res registry.Resource) balance.NodeInfo {
	info := balance.NodeInfo{Name: res.Name, Site: res.Site, Speed: 1}
	if v, ok := res.Attrs["speed"]; ok {
		_, _ = fmt.Sscanf(v, "%g", &info.Speed)
	}
	if v, ok := res.Attrs["ram_mb"]; ok {
		_, _ = fmt.Sscanf(v, "%d", &info.RAMFreeMB)
	}
	if v, ok := res.Attrs["load1"]; ok {
		_, _ = fmt.Sscanf(v, "%g", &info.Load1)
	}
	if v, ok := res.Attrs["running"]; ok {
		_, _ = fmt.Sscanf(v, "%d", &info.Running)
	}
	return info
}

// JobInfo is a queryable job record (web/CLI interfaces).
type JobInfo struct {
	AppID  string
	State  string
	Detail string
}

// Jobs lists jobs launched from this proxy, sorted by app id.
func (p *Proxy) Jobs() []JobInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]JobInfo, 0, len(p.jobs))
	for appID, js := range p.jobs {
		out = append(out, JobInfo{AppID: appID, State: jobStateName(js.state), Detail: js.detail})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AppID < out[j].AppID })
	return out
}

func jobStateName(s proto.JobState) string {
	switch s {
	case proto.JobQueued:
		return "queued"
	case proto.JobRunning:
		return "running"
	case proto.JobDone:
		return "done"
	case proto.JobFailed:
		return "failed"
	case proto.JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// AllResources returns this proxy's full resource view: its own live node
// inventory plus everything peers announced, sorted.
func (p *Proxy) AllResources(kind string) []registry.Resource {
	out := p.resources.Lookup(registry.Query{Kind: kind})
	for _, r := range p.localInventory() {
		if kind == "" || r.Kind == kind {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Name < out[j].Name
	})
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
