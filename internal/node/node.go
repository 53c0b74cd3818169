// Package node implements the grid node agent: the software that runs on
// every workstation or cluster node inside a site.
//
// The paper's key deployment claim is that nodes need almost nothing
// installed ("apart from the MPI and the introduction of a proxy server at
// the sites, the installation of an additional module at the client is
// unnecessary"). Accordingly the agent is small: it executes registered
// programs as processes, reports CPU/RAM/disk status to its site proxy
// (monitor layer), and exposes per-process endpoints on the site-local
// network. It knows nothing about other sites, TLS, or the control
// protocol spoken between proxies.
//
// Programs are Go functions registered by name — the in-process equivalent
// of binaries installed on the node. An MPI program receives its rank,
// world size and rank table through Env and joins the computation with
// package mpi; the agent itself is MPI-agnostic, mirroring the paper's
// external (non-intrusive) MPI support.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"gridproxy/internal/monitor"
	"gridproxy/internal/transport"
)

// Package errors.
var (
	// ErrUnknownProgram is returned by Spawn for unregistered programs.
	ErrUnknownProgram = errors.New("node: unknown program")
	// ErrStopped is returned after the agent shut down.
	ErrStopped = errors.New("node: agent stopped")
)

// HWProfile describes the node's (simulated) hardware. The simulator
// assigns heterogeneous profiles; a real port would sample the OS instead.
type HWProfile struct {
	// Speed is relative compute speed (1.0 = reference node).
	Speed float64
	// RAMMB and DiskMB are total capacities.
	RAMMB  int64
	DiskMB int64
	// RAMPerProcMB approximates memory consumed per running process.
	RAMPerProcMB int64
}

// DefaultHW is a plain reference node.
var DefaultHW = HWProfile{Speed: 1.0, RAMMB: 2048, DiskMB: 64 << 10, RAMPerProcMB: 64}

// Env is what a spawned program sees.
type Env struct {
	// Node and Site identify where the process runs.
	Node string
	Site string
	// AppID is the grid-wide application id (one proxy address space).
	AppID string
	// Rank and WorldSize position the process in its application; Rank
	// is -1 for non-parallel jobs.
	Rank      int
	WorldSize int
	// Args are the program arguments.
	Args []string
	// RankTable maps every rank to the address this process should dial
	// to reach it: a site-local node endpoint for local ranks, a
	// virtual-slave endpoint on the site proxy for remote ranks. The
	// process cannot tell which is which — the paper's transparency.
	RankTable map[int]string
	// ListenAddr is where this process accepts connections from peers.
	ListenAddr string
	// Network is the site-local network.
	Network transport.Network
	// Speed is the node's relative speed, for simulated workloads.
	Speed float64
	// Input resolves a staged input file by name out of the site's blob
	// store; nil when the launch staged nothing in. Prefer StagedInput.
	Input func(name string) ([]byte, bool)
	// Publish stores an output blob at the site proxy so it can flow
	// back to the origin when the job finishes; nil when the launch has
	// no data plane attached. Prefer PublishOutput.
	Publish func(name string, data []byte) error
}

// StagedInput resolves a staged input file by name; ok is false when the
// name was not staged in (or the launch had no data plane). The bytes are
// read-only and valid until the rank returns.
func (e Env) StagedInput(name string) ([]byte, bool) {
	if e.Input == nil {
		return nil, false
	}
	return e.Input(name)
}

// PublishOutput records an output blob for staging back to the origin
// site when the job completes.
func (e Env) PublishOutput(name string, data []byte) error {
	if e.Publish == nil {
		return errors.New("node: no data plane attached to this process")
	}
	return e.Publish(name, data)
}

// ProgramFunc is an installed program. The context is cancelled when the
// process is killed or the agent stops.
type ProgramFunc func(ctx context.Context, env Env) error

// SpawnSpec asks the agent to start one process.
type SpawnSpec struct {
	AppID     string
	Program   string
	Args      []string
	Rank      int
	WorldSize int
	RankTable map[int]string
	// Input and Publish are the data-plane hooks copied into Env (both
	// optional; see Env.Input and Env.Publish).
	Input   func(name string) ([]byte, bool)
	Publish func(name string, data []byte) error
}

// ProcessState reports one running or finished process.
type ProcessState struct {
	AppID   string
	Program string
	Rank    int
	Started time.Time
	Done    bool
	Err     error
}

type process struct {
	spec    SpawnSpec
	started time.Time
	cancel  context.CancelFunc
	done    chan struct{}
	err     error
}

// Agent is one grid node. Create with New, register programs, then Spawn.
// It is safe for concurrent use.
type Agent struct {
	name    string
	site    string
	network transport.Network
	hw      HWProfile
	log     *slog.Logger
	clock   func() time.Time

	mu       sync.Mutex
	programs map[string]ProgramFunc
	procs    map[string]*process // key: appID/rank
	stopped  bool
	wg       sync.WaitGroup
}

// Option configures an Agent.
type Option func(*Agent)

// WithHW sets the hardware profile (default DefaultHW).
func WithHW(hw HWProfile) Option { return func(a *Agent) { a.hw = hw } }

// WithLogger attaches a logger; nil, like none, logs nothing.
func WithLogger(log *slog.Logger) Option { return func(a *Agent) { a.log = log } }

// WithClock overrides the time source (tests).
func WithClock(clock func() time.Time) Option { return func(a *Agent) { a.clock = clock } }

// New creates an agent named name in site, attached to the site-local
// network.
func New(name, site string, network transport.Network, opts ...Option) *Agent {
	a := &Agent{
		name:     name,
		site:     site,
		network:  network,
		hw:       DefaultHW,
		clock:    time.Now,
		programs: make(map[string]ProgramFunc),
		procs:    make(map[string]*process),
	}
	for _, opt := range opts {
		opt(a)
	}
	if a.log == nil {
		a.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	return a
}

// Name returns the node name.
func (a *Agent) Name() string { return a.name }

// Site returns the node's site.
func (a *Agent) Site() string { return a.site }

// HW returns the node's hardware profile.
func (a *Agent) HW() HWProfile { return a.hw }

// Speed returns the node's relative compute speed (scheduler input).
func (a *Agent) Speed() float64 { return a.hw.Speed }

// RegisterProgram installs a program under name, replacing any previous
// registration.
func (a *Agent) RegisterProgram(name string, fn ProgramFunc) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.programs[name] = fn
}

// Programs returns the installed program names, sorted.
func (a *Agent) Programs() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.programs))
	for name := range a.programs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EndpointAddr returns the site-local address where a given rank of an
// application listens on a node. The layout "<node>/<app>/r<rank>" keeps
// per-application address spaces disjoint; proxies compute the same
// addresses when splicing tunnel streams to real ranks.
func EndpointAddr(nodeName, appID string, rank int) string {
	return fmt.Sprintf("%s/%s/r%d", nodeName, appID, rank)
}

// EndpointAddr returns the endpoint address of (app, rank) on this node.
func (a *Agent) EndpointAddr(appID string, rank int) string {
	return EndpointAddr(a.name, appID, rank)
}

// Spawn starts a process for spec and returns the site-local endpoint where
// it listens. The process runs until its program returns or Kill/Stop.
func (a *Agent) Spawn(ctx context.Context, spec SpawnSpec) (string, error) {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return "", ErrStopped
	}
	fn, ok := a.programs[spec.Program]
	if !ok {
		a.mu.Unlock()
		return "", fmt.Errorf("%w: %q on node %s", ErrUnknownProgram, spec.Program, a.name)
	}
	key := procKey(spec.AppID, spec.Rank)
	if _, dup := a.procs[key]; dup {
		a.mu.Unlock()
		return "", fmt.Errorf("node: %s already running %s", a.name, key)
	}
	procCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	p := &process{
		spec:    spec,
		started: a.clock(),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	a.procs[key] = p
	a.wg.Add(1)
	a.mu.Unlock()

	endpoint := a.EndpointAddr(spec.AppID, spec.Rank)
	env := Env{
		Node:       a.name,
		Site:       a.site,
		AppID:      spec.AppID,
		Rank:       spec.Rank,
		WorldSize:  spec.WorldSize,
		Args:       spec.Args,
		RankTable:  spec.RankTable,
		ListenAddr: endpoint,
		Network:    a.network,
		Speed:      a.hw.Speed,
		Input:      spec.Input,
		Publish:    spec.Publish,
	}
	go func() {
		defer a.wg.Done()
		defer close(p.done)
		defer cancel()
		err := fn(procCtx, env)
		a.mu.Lock()
		p.err = err
		a.mu.Unlock()
		if err != nil {
			a.log.Warn("process failed", "node", a.name, "app", spec.AppID, "rank", spec.Rank, "err", err)
		} else {
			a.log.Debug("process done", "node", a.name, "app", spec.AppID, "rank", spec.Rank)
		}
	}()
	return endpoint, nil
}

// Wait blocks until the given process finishes and returns its error.
func (a *Agent) Wait(ctx context.Context, appID string, rank int) error {
	a.mu.Lock()
	p, ok := a.procs[procKey(appID, rank)]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("node: no process %s/r%d on %s", appID, rank, a.name)
	}
	select {
	case <-p.done:
		a.mu.Lock()
		defer a.mu.Unlock()
		return p.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill cancels a process's context.
func (a *Agent) Kill(appID string, rank int) error {
	a.mu.Lock()
	p, ok := a.procs[procKey(appID, rank)]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("node: no process %s/r%d on %s", appID, rank, a.name)
	}
	p.cancel()
	return nil
}

// Release forgets a finished process, freeing its (app, rank) slot.
func (a *Agent) Release(appID string, rank int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := procKey(appID, rank)
	if p, ok := a.procs[key]; ok {
		select {
		case <-p.done:
			delete(a.procs, key)
		default:
			// Still running; keep it.
		}
	}
}

// Processes lists process states sorted by (app, rank).
func (a *Agent) Processes() []ProcessState {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ProcessState, 0, len(a.procs))
	for _, p := range a.procs {
		state := ProcessState{
			AppID:   p.spec.AppID,
			Program: p.spec.Program,
			Rank:    p.spec.Rank,
			Started: p.started,
		}
		select {
		case <-p.done:
			state.Done = true
			state.Err = p.err
		default:
		}
		out = append(out, state)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AppID != out[j].AppID {
			return out[i].AppID < out[j].AppID
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// runningCount returns the number of live processes.
func (a *Agent) runningCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, p := range a.procs {
		select {
		case <-p.done:
		default:
			n++
		}
	}
	return n
}

// Stats samples the node's current status for the monitor layer. Values
// derive from the hardware profile and the live process count.
func (a *Agent) Stats() monitor.NodeStats {
	running := a.runningCount()
	ramUsed := int64(running) * a.hw.RAMPerProcMB
	ramFree := a.hw.RAMMB - ramUsed
	if ramFree < 0 {
		ramFree = 0
	}
	load := float64(running) / a.hw.Speed
	cpuFree := 100 - 100*load
	if cpuFree < 0 {
		cpuFree = 0
	}
	return monitor.NodeStats{
		Node:       a.name,
		CPUFreePct: cpuFree,
		RAMFreeMB:  ramFree,
		DiskFreeMB: a.hw.DiskMB,
		Load1:      load,
		Procs:      running,
		Collected:  a.clock(),
		Speed:      a.hw.Speed,
	}
}

// Stop kills every process and waits for them to exit.
func (a *Agent) Stop() {
	a.mu.Lock()
	a.stopped = true
	procs := make([]*process, 0, len(a.procs))
	for _, p := range a.procs {
		procs = append(procs, p)
	}
	a.mu.Unlock()
	for _, p := range procs {
		p.cancel()
	}
	a.wg.Wait()
}

func procKey(appID string, rank int) string {
	return fmt.Sprintf("%s/r%d", appID, rank)
}
