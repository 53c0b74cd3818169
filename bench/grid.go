package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"gridproxy/bench/wanem"
	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/gate"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/programs"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
)

// The yardstick WAN: 10 ms each way, 125 MB/s per direction shared by
// every connection, a queue of twice the bandwidth-delay product.
var wanParams = wanem.Params{OneWay: 10 * time.Millisecond, Rate: 125e6}

const (
	originSite = "sitea"
	remoteSite = "siteb"
	// gateRate replaces the default 50 req/s/user and 200 req/s/group
	// token buckets: a closed loop polling every millisecond would
	// otherwise measure the rate policy. The limiter still runs.
	gateRate = 1e6
	// jobRecordTTL replaces the default 15 minutes a finished job's record
	// stays in the proxy's job table. GET /api/jobs lists the whole table,
	// so with the default every listing of a run costs more than the one
	// before, and control_mix's numbers would depend on how long it ran
	// and how many jobs it had already done. With 2 s the table is in
	// steady state from the warm-up on, holding the last two seconds' jobs.
	jobRecordTTL = 2 * time.Second
)

// users are the benchmark's grid accounts, one per client session.
var users = []struct{ name, password string }{{"bench0", "pw-bench0"}, {"bench1", "pw-bench1"}}

// site is one proxy with its node agent, assembled as gridproxyd does.
type site struct {
	reg   *metrics.Registry
	proxy *core.Proxy
	agent *node.Agent
	wan   *transport.TLS // the ladder dials its own connections on it
}

// grid is a two-site grid fronted by a gateway on a real HTTP listener.
type grid struct {
	authority *ca.Authority
	link      *wanem.Link // nil on the loopback medium
	sites     [2]*site
	gateReg   *metrics.Registry
	gateway   *gate.Gateway
	server    *http.Server
	baseURL   string
	ticketKey []byte // origin proxy's service key (ladder: ticket.validate)
	tgs       *ticket.GrantingService
	stopGate  context.CancelFunc
	serveDone chan struct{}
}

// nextPort walks the loopback ports below the kernel's ephemeral range
// (32768 and up by default). Ports from there are never handed to an
// outgoing connection or a ":0" listener of this process between the
// probe below and the proxy's own bind, which ports picked by listening on
// ":0" are: three runs in eighty died with "address already in use" that
// way. Each set-up gets ports no earlier set-up of the process used.
var nextPort = 20000 + os.Getpid()%4000

// freePorts finds n consecutive free loopback ports and returns the
// first: a proxy given host:port P also claims P+1 and P+2.
func freePorts(n int) (int, error) {
	for attempt := 0; attempt < 1000; attempt++ {
		if nextPort+n > 32000 {
			nextPort = 20000
		}
		port := nextPort
		nextPort += n
		free := true
		for i := 0; i < n && free; i++ {
			ln, err := net.Listen("tcp", loopback(port+i))
			if err != nil {
				free = false
				break
			}
			ln.Close()
		}
		if free {
			return port, nil
		}
	}
	return 0, fmt.Errorf("no %d consecutive free loopback ports", n)
}

func loopback(port int) string { return net.JoinHostPort("127.0.0.1", strconv.Itoa(port)) }

// newUserStore builds the replicated users file: the README's researcher
// grants, nothing broader.
func newUserStore() (*auth.Store, error) {
	store, err := auth.NewStore()
	if err != nil {
		return nil, err
	}
	for _, u := range users {
		if err := store.AddUser(u.name, u.password); err != nil {
			return nil, err
		}
		if err := store.AddToGroup(u.name, "researchers"); err != nil {
			return nil, err
		}
	}
	for _, p := range []auth.Permission{
		{Action: "status", Resource: "*"},
		{Action: "mpi", Resource: "site:*"},
		{Action: "tunnel", Resource: "site:*"},
		{Action: "stage", Resource: "site:*"},
	} {
		store.GrantGroup("researchers", p)
	}
	return store, nil
}

// startGrid brings the whole deployment up: CA, both proxies with one
// node each, peers connected and inventories exchanged, the gateway on an
// HTTP listener. Every knob is the daemons' default except gateRate and
// jobRecordTTL.
func startGrid(ctx context.Context, wan bool) (*grid, error) {
	g := &grid{}
	ok := false
	defer func() {
		if !ok {
			g.close()
		}
	}()

	authority, err := ca.New("gridmark")
	if err != nil {
		return nil, err
	}
	g.authority = authority
	store, err := newUserStore()
	if err != nil {
		return nil, err
	}
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, err
	}
	if wan {
		g.link = wanem.NewLink(wanParams)
	}

	for i, name := range []string{originSite, remoteSite} {
		s, key, err := g.startSite(i, name, store, secret)
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		g.sites[i] = s
		if i == 0 {
			g.ticketKey = key
		}
	}
	origin, remote := g.sites[0].proxy, g.sites[1].proxy
	if err := origin.Connect(ctx, remoteSite, remote.WANAddr()); err != nil {
		return nil, fmt.Errorf("connect peers: %w", err)
	}
	// Placement needs the remote inventory; Connect exchanged it, but wait
	// until the scheduler actually sees one node per site.
	for {
		placed, err := origin.Placement(2)
		if err == nil && placed[0].Site != placed[1].Site {
			break
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("remote inventory never arrived: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}

	// The gateway, as gridgate builds it: its own TGS from the shared
	// secret, its own label registry, the proxy reached over TCP.
	g.gateReg = metrics.NewRegistry()
	tgs, err := ticket.NewGrantingService(store, ticket.WithMasterKey(secret), ticket.WithMetrics(g.gateReg))
	if err != nil {
		return nil, err
	}
	if _, err := tgs.RegisterService(core.ServiceName(originSite)); err != nil {
		return nil, err
	}
	g.tgs = tgs
	gateway, err := gate.New(gate.Config{
		Site:      originSite,
		ProxyAddr: origin.LocalAddr(),
		Network:   transport.NewLabelTCP(),
		TGS:       tgs,
		Limits:    gate.LimitConfig{UserRate: gateRate, GroupRate: gateRate},
		Metrics:   g.gateReg,
	})
	if err != nil {
		return nil, err
	}
	g.gateway = gateway
	gateCtx, stop := context.WithCancel(context.Background())
	g.stopGate = stop
	go gateway.Run(gateCtx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.server = &http.Server{Handler: gateway, ReadHeaderTimeout: 10 * time.Second}
	g.serveDone = make(chan struct{})
	go func() {
		defer close(g.serveDone)
		_ = g.server.Serve(ln)
	}()
	g.baseURL = "http://" + ln.Addr().String()
	ok = true
	return g, nil
}

func (g *grid) startSite(index int, name string, store *auth.Store, secret []byte) (*site, []byte, error) {
	s := &site{reg: metrics.NewRegistry()}
	cred, err := g.authority.IssueHost("proxy."+name, "127.0.0.1")
	if err != nil {
		return nil, nil, err
	}
	var medium transport.Network = transport.TCP{}
	if g.link != nil {
		medium = g.link.Side(index, medium)
	}
	s.wan = transport.NewTLS(medium, cred, g.authority.CertPool(), s.reg)
	local := transport.NewLabelTCP()

	tgs, err := ticket.NewGrantingService(store, ticket.WithMasterKey(secret), ticket.WithMetrics(s.reg))
	if err != nil {
		return nil, nil, err
	}
	key, err := tgs.RegisterService(core.ServiceName(name))
	if err != nil {
		return nil, nil, err
	}
	policy, err := balance.New("least-loaded", 1)
	if err != nil {
		return nil, nil, err
	}
	wanPort, err := freePorts(1)
	if err != nil {
		return nil, nil, err
	}
	localPort, err := freePorts(3)
	if err != nil {
		return nil, nil, err
	}
	s.proxy, err = core.New(core.Config{
		Site:      name,
		WANAddr:   loopback(wanPort),
		LocalAddr: loopback(localPort),
		WAN:       s.wan,
		Local:     local,
		Users:     store,
		TGS:       tgs,
		TicketKey: key,
		Policy:    policy,
		Metrics:   s.reg,
		Jobs:      core.JobConfig{TerminalTTL: jobRecordTTL},
	})
	if err != nil {
		return nil, nil, err
	}
	s.agent = node.New(name+"-n0", name, local,
		node.WithHW(node.HWProfile{Speed: 1, RAMMB: 2048, DiskMB: 64 << 10, RAMPerProcMB: 64}))
	programs.RegisterAll(s.agent)
	registerBenchPrograms(s.agent)
	s.proxy.AttachNode(s.agent)
	if err := s.proxy.Start(); err != nil {
		s.agent.Stop()
		return nil, nil, err
	}
	return s, key, nil
}

// close drains the gateway and stops everything startGrid started.
func (g *grid) close() {
	if g.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = g.gateway.Drain(ctx)
		_ = g.server.Shutdown(ctx)
		cancel()
		<-g.serveDone
	}
	if g.stopGate != nil {
		g.stopGate()
	}
	for _, s := range g.sites {
		if s != nil {
			_ = s.proxy.Close()
			s.agent.Stop()
		}
	}
}
