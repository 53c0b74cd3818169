// Package site assembles the pieces of one grid site — a site-local
// network, node agents, and the border proxy — and provides a multi-site
// Testbed that stands in for the paper's physical deployment: several
// LANs/clusters joined through proxy servers over a WAN with TLS between
// the borders, optionally shaped by one transport.Link per pair of sites.
//
// The Testbed is the substrate for integration tests, the examples, and
// the experiment harness. Every byte still flows through real listeners,
// dials, TLS records and tunnel frames; only the wires are in-memory.
package site

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/stage"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
)

// Site is one assembled grid site.
type Site struct {
	Name  string
	Proxy *core.Proxy
	Nodes []*node.Agent
	// Local is the site's internal network (plaintext).
	Local transport.Network
	lan   *transport.MemNetwork
}

// LocalAddr returns the proxy's client service address inside the site.
func (s *Site) LocalAddr() string { return s.Proxy.LocalAddr() }

// RegisterProgram installs a program on every node of the site.
func (s *Site) RegisterProgram(name string, fn node.ProgramFunc) {
	for _, agent := range s.Nodes {
		agent.RegisterProgram(name, fn)
	}
}

// Close stops the proxy and all node agents.
func (s *Site) Close() {
	_ = s.Proxy.Close()
	for _, agent := range s.Nodes {
		agent.Stop()
	}
	_ = s.lan.Close()
}

// SiteSpec describes one site of a testbed.
type SiteSpec struct {
	Name string
	// Nodes lists the hardware profile of each node; len(Nodes) nodes
	// are created, named <site>-n<i>.
	Nodes []node.HWProfile
	// Tunnel, if non-nil, overrides the testbed-wide tunnel config for
	// this site — how mixed-version grids (one site bonding, another
	// not) are simulated.
	Tunnel *tunnel.Config
	// Metrics, if non-nil, receives this site's proxy metrics instead of
	// the testbed-wide registry — for tests that must tell one site's
	// counts from another's.
	Metrics *metrics.Registry
}

// UniformNodes builds n identical node profiles with the given speed.
func UniformNodes(n int, speed float64) []node.HWProfile {
	profiles := make([]node.HWProfile, n)
	for i := range profiles {
		profiles[i] = node.HWProfile{
			Speed:        speed,
			RAMMB:        2048,
			DiskMB:       64 << 10,
			RAMPerProcMB: 64,
		}
	}
	return profiles
}

// TestbedConfig describes a whole simulated grid.
type TestbedConfig struct {
	// GridName names the CA.
	GridName string
	// Sites lists the member sites.
	Sites []SiteSpec
	// WAN shapes the inter-site links. Each pair of sites gets one
	// transport.Link, so the control session, bond members and stripes
	// between two sites share its rate. The zero value is unshaped.
	WAN transport.LinkParams
	// LANLatency puts a one-way delay line (a Rate-0 link) on each site's
	// internal network; zero means unshaped. Load experiments set this
	// so in-site RPCs have a realistic service time instead of the
	// infinite speed of an unshaped in-memory pipe.
	LANLatency time.Duration
	// Policy is the placement policy name (default "least-loaded").
	Policy string
	// Lifecycle carries the control-plane timing knobs handed to every
	// proxy (zero value: peerlink defaults).
	Lifecycle peerlink.Config
	// Gossip carries the membership-gossip knobs handed to every proxy
	// (zero value: core.GossipConfig defaults).
	Gossip core.GossipConfig
	// PeerCache carries the connection-cache knobs handed to every proxy
	// (zero value: peerlink.CacheConfig defaults).
	PeerCache peerlink.CacheConfig
	// Jobs carries the job-lifecycle fault-tolerance knobs handed to
	// every proxy (zero value: core.JobConfig defaults).
	Jobs core.JobConfig
	// Stage carries the data-plane knobs (blob store size, chunking,
	// striping) handed to every proxy (zero value: stage defaults).
	Stage stage.Config
	// Tunnel carries the WAN tunnel knobs (bonding width, adaptive
	// window clamps) handed to every proxy unless a SiteSpec overrides
	// them (zero value: adaptive flow control, single connection).
	Tunnel tunnel.Config
	// Metrics may be nil.
	Metrics *metrics.Registry
	// Logger may be nil.
	Logger *logging.Logger
	// Users, if nil, a store is created with a default admin user
	// "admin"/"admin" holding "*"/"*".
	Users *auth.Store
	// Clock overrides the time source for the TGS and every proxy, so
	// expiry tests can move the whole grid's clock at once. Nil means
	// time.Now.
	Clock func() time.Time
}

// Testbed is an assembled multi-site grid.
type Testbed struct {
	CA    *ca.Authority
	Users *auth.Store
	TGS   *ticket.GrantingService
	Sites []*Site
	// WAN is the shared inter-site backbone (pre-TLS, before any Link).
	WAN *transport.MemNetwork

	metrics    *metrics.Registry
	clock      func() time.Time
	wanLink    transport.LinkParams
	lanLatency time.Duration
	linksMu    sync.Mutex
	links      map[[2]string]*transport.Link // by site pair, names in order
	specs      map[string]SiteSpec
	policyName string
	lifecycle  peerlink.Config
	gossip     core.GossipConfig
	peerCache  peerlink.CacheConfig
	jobs       core.JobConfig
	stage      stage.Config
	tunnel     tunnel.Config
	logger     *logging.Logger
}

// NewTestbed builds and starts a grid: a CA, per-site TLS credentials, a
// shared (optionally shaped) WAN, one proxy per site, and node agents.
// Proxies are started but not connected; call ConnectAll or connect pairs
// manually.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.GridName == "" {
		cfg.GridName = "testgrid"
	}
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("site: testbed needs at least one site")
	}
	authority, err := ca.New(cfg.GridName)
	if err != nil {
		return nil, err
	}
	users := cfg.Users
	if users == nil {
		users, err = auth.NewStore(auth.WithMetrics(cfg.Metrics))
		if err != nil {
			return nil, err
		}
		if err := users.AddUser("admin", "admin"); err != nil {
			return nil, err
		}
		if err := users.GrantUser("admin", auth.Permission{Action: "*", Resource: "*"}); err != nil {
			return nil, err
		}
	}
	tgsOpts := []ticket.Option{ticket.WithMetrics(cfg.Metrics)}
	if cfg.Clock != nil {
		tgsOpts = append(tgsOpts, ticket.WithClock(cfg.Clock))
	}
	tgs, err := ticket.NewGrantingService(users, tgsOpts...)
	if err != nil {
		return nil, err
	}

	policyName := cfg.Policy
	if policyName == "" {
		policyName = "least-loaded"
	}

	tb := &Testbed{
		CA:         authority,
		Users:      users,
		TGS:        tgs,
		WAN:        transport.NewMemNetwork(),
		metrics:    cfg.Metrics,
		clock:      cfg.Clock,
		wanLink:    cfg.WAN,
		lanLatency: cfg.LANLatency,
		links:      make(map[[2]string]*transport.Link),
		specs:      make(map[string]SiteSpec, len(cfg.Sites)),
		policyName: policyName,
		lifecycle:  cfg.Lifecycle,
		gossip:     cfg.Gossip,
		peerCache:  cfg.PeerCache,
		jobs:       cfg.Jobs,
		stage:      cfg.Stage,
		tunnel:     cfg.Tunnel,
		logger:     cfg.Logger,
	}
	for _, spec := range cfg.Sites {
		s, err := tb.buildSite(spec, policyName, cfg.Logger)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.Sites = append(tb.Sites, s)
		tb.specs[spec.Name] = spec
	}
	return tb, nil
}

func (tb *Testbed) buildSite(spec SiteSpec, policyName string, log *logging.Logger) (*Site, error) {
	cred, err := tb.CA.IssueHost("proxy." + spec.Name)
	if err != nil {
		return nil, err
	}
	policy, err := balance.New(policyName, 1)
	if err != nil {
		return nil, err
	}
	lan := transport.NewMemNetwork()
	var local transport.Network = lan
	if tb.lanLatency > 0 {
		local = transport.NewLink(transport.LinkParams{OneWay: tb.lanLatency}).Side(0, lan)
	}
	var wan transport.Network = tb.WAN
	if tb.wanLink != (transport.LinkParams{}) {
		wan = siteWAN{tb: tb, site: spec.Name}
	}
	wanTLS := transport.NewTLS(wan, cred, tb.CA.CertPool(), tb.metrics)

	ticketKey, err := tb.TGS.RegisterService(core.ServiceName(spec.Name))
	if err != nil {
		return nil, err
	}
	tunnelcfg := tb.tunnel
	if spec.Tunnel != nil {
		tunnelcfg = *spec.Tunnel
	}
	reg := tb.metrics
	if spec.Metrics != nil {
		reg = spec.Metrics
	}
	proxy, err := core.New(core.Config{
		Site:      spec.Name,
		WANAddr:   "wan." + spec.Name,
		LocalAddr: "proxy." + spec.Name,
		WAN:       wanTLS,
		Local:     local,
		Users:     tb.Users,
		TGS:       tb.TGS,
		TicketKey: ticketKey,
		Policy:    policy,
		Lifecycle: tb.lifecycle,
		Gossip:    tb.gossip,
		PeerCache: tb.peerCache,
		Jobs:      tb.jobs,
		Stage:     tb.stage,
		Tunnel:    tunnelcfg,
		Metrics:   reg,
		Logger:    log,
		Clock:     tb.clock,
	})
	if err != nil {
		return nil, err
	}
	s := &Site{Name: spec.Name, Proxy: proxy, Local: local, lan: lan}
	for i, hw := range spec.Nodes {
		agent := node.New(fmt.Sprintf("%s-n%d", spec.Name, i), spec.Name, local,
			node.WithHW(hw), node.WithLogger(log))
		s.Nodes = append(s.Nodes, agent)
		proxy.AttachNode(agent)
	}
	if err := proxy.Start(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// siteWAN is one site's view of the shaped WAN: a dial to another site
// crosses the Link of that pair of sites.
type siteWAN struct {
	tb   *Testbed
	site string
}

func (w siteWAN) Listen(addr string) (net.Listener, error) { return w.tb.WAN.Listen(addr) }

func (w siteWAN) Dial(ctx context.Context, addr string) (net.Conn, error) {
	return w.tb.link(w.site, strings.TrimPrefix(addr, "wan.")).Dial(ctx, addr)
}

// link returns from's side of the Link between sites from and to, built on
// first use.
func (tb *Testbed) link(from, to string) transport.Network {
	pair, side := [2]string{from, to}, 0
	if to < from {
		pair, side = [2]string{to, from}, 1
	}
	tb.linksMu.Lock()
	defer tb.linksMu.Unlock()
	l := tb.links[pair]
	if l == nil {
		l = transport.NewLink(tb.wanLink)
		tb.links[pair] = l
	}
	return l.Side(side, tb.WAN)
}

// Site returns the site with the given name, or nil.
func (tb *Testbed) Site(name string) *Site {
	for _, s := range tb.Sites {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// RestartSite tears one site down and rebuilds it from its original
// spec — the testbed's "kill -9 the proxy host and boot a fresh one".
// The new site listens on the same WAN and client addresses; the other
// proxies' gossip rounds redial it and recover without operator action.
// The returned Site replaces the old one in tb.Sites.
func (tb *Testbed) RestartSite(name string) (*Site, error) {
	spec, ok := tb.specs[name]
	if !ok {
		return nil, fmt.Errorf("site: no spec for site %q", name)
	}
	old := tb.Site(name)
	if old != nil {
		old.Close()
	}
	s, err := tb.buildSite(spec, tb.policyName, tb.logger)
	if err != nil {
		return nil, err
	}
	for i, existing := range tb.Sites {
		if existing.Name == name {
			tb.Sites[i] = s
			return s, nil
		}
	}
	tb.Sites = append(tb.Sites, s)
	return s, nil
}

// ConnectAll joins every pair of sites (each pair connected once, lower
// name dials higher name).
func (tb *Testbed) ConnectAll(ctx context.Context) error {
	for i, a := range tb.Sites {
		for _, b := range tb.Sites[i+1:] {
			if err := a.Proxy.Connect(ctx, b.Name, b.Proxy.WANAddr()); err != nil {
				return fmt.Errorf("site: connect %s->%s: %w", a.Name, b.Name, err)
			}
		}
	}
	return nil
}

// RegisterProgram installs a program on every node of every site.
func (tb *Testbed) RegisterProgram(name string, fn node.ProgramFunc) {
	for _, s := range tb.Sites {
		s.RegisterProgram(name, fn)
	}
}

// Close tears the whole grid down.
func (tb *Testbed) Close() {
	for _, s := range tb.Sites {
		s.Close()
	}
	_ = tb.WAN.Close()
}
