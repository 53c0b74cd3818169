package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/failure"
	"gridproxy/internal/gate"
	"gridproxy/internal/metrics"
	"gridproxy/internal/site"
)

// e13Config parameterizes experiment E13.
type e13Config struct {
	// Capacity is the gateway's MaxInFlight (MaxQueue matches it).
	Capacity int
	// QueueWait bounds how long a queued request may wait for a slot.
	QueueWait time.Duration
	// LANLatency puts a one-way delay line on the site-local network so
	// every gate→proxy RPC has a realistic service time. Without it the
	// in-memory pipes are effectively infinitely fast: slots recycle in
	// microseconds, no finite herd can fill the queue, and the experiment
	// would measure the Go scheduler instead of admission control.
	LANLatency time.Duration
	// Clients is the offered load per multiplier phase (total simulated
	// clients = Clients × len(Multipliers)).
	Clients int
	// Users is how many distinct authenticated sessions drive the load.
	Users int
	// Multipliers are the offered-concurrency factors over Capacity.
	Multipliers []int
	// AdmittedP99Budget bounds the p99 latency of served requests at the
	// highest multiplier.
	AdmittedP99Budget time.Duration
	// ShedP99Budget bounds the p99 latency of shed (429) requests.
	ShedP99Budget time.Duration
	// DrainUploads is how many in-flight uploads the drain phase parks.
	DrainUploads int
}

// e13Row is one load phase.
type e13Row struct {
	Multiplier int
	Offered    int
	Served     int
	Queued     int64 // served requests that waited in the accept queue
	Shed       int
	Errors     int
	P50        time.Duration // served-request latency
	P99        time.Duration
	ShedP99    time.Duration
}

// e13 is the gateway load-shedding run: one gridgate gateway fronting a
// small real grid (real proxies, nodes, tickets, wire protocol — only the
// HTTP transport is simulated by driving ServeHTTP in-process) takes
// ≥100k simulated clients at 1×, 4×, and 16× its admission capacity,
// then drains. Its bars:
//
//  1. every request is answered and accounted: served + shed == offered
//     in every phase, with zero transport/handler errors;
//  2. at 1× capacity nothing is shed — admission control must be
//     invisible until there is something to shed;
//  3. at 16× overload the p99 of ADMITTED requests stays within budget
//     (bounded queueing: the queue is short and timed, so accepted work
//     is fast work) while shed requests fail in <10ms with 429 +
//     Retry-After — overload answers in microseconds, not after a
//     queueing delay;
//  4. the sweep dials one pooled proxy connection per user, not one
//     per client;
//  5. graceful drain drops nothing: uploads parked mid-body by a
//     slow-loris injector all complete with 201 while new arrivals get
//     503, and Drain returns clean.
func e13(cfg e13Config) (Table, error) {
	users, err := auth.NewStore()
	if err != nil {
		return Table{}, err
	}
	for i := 0; i < cfg.Users; i++ {
		name := fmt.Sprintf("u%03d", i)
		if err := users.AddUser(name, "pw"); err != nil {
			return Table{}, err
		}
		if err := users.GrantUser(name, auth.Permission{Action: "*", Resource: "*"}); err != nil {
			return Table{}, err
		}
	}
	reg := metrics.NewRegistry()
	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName:   "e13",
		Users:      users,
		Metrics:    reg,
		LANLatency: cfg.LANLatency,
		Sites: []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(2, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(2, 1)},
		},
	})
	if err != nil {
		return Table{}, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return Table{}, err
	}
	gw, err := gate.New(gate.Config{
		Site:      "sitea",
		ProxyAddr: tb.Sites[0].LocalAddr(),
		Network:   tb.Sites[0].Local,
		TGS:       tb.TGS,
		Metrics:   reg,
		Admission: gate.AdmissionConfig{
			MaxInFlight: cfg.Capacity,
			MaxQueue:    cfg.Capacity,
			QueueWait:   cfg.QueueWait,
		},
		// The experiment measures admission control; per-user fairness
		// (rate limits, job quotas) is off so the accounting below has
		// exactly one refusal source.
		Limits: gate.LimitConfig{
			UserRate: -1, GroupRate: -1, LoginRate: -1, MaxJobsPerUser: -1,
		},
		PoolClients: cfg.Users,
	})
	if err != nil {
		return Table{}, err
	}

	// One sign-on per user — the sessions the simulated clients share.
	tokens := make([]string, cfg.Users)
	for i := range tokens {
		body := fmt.Sprintf(`{"user":"u%03d","password":"pw"}`, i)
		rr := httptest.NewRecorder()
		gw.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/login", strings.NewReader(body)))
		if tokens[i], err = loginToken(rr); err != nil {
			return Table{}, fmt.Errorf("e13: login u%03d: %w", i, err)
		}
	}

	t := Table{
		Title:  "E13: gateway admission control — served/queued/shed under overload",
		Claim:  "at 16x admission capacity the gateway bounds admitted-request p99, sheds the excess in <10ms with 429+Retry-After, and accounts for every offered request",
		Header: []string{"load", "offered", "served", "queued", "shed", "errors", "p50", "p99", "shed-p99"},
	}
	var rows []e13Row
	for _, m := range cfg.Multipliers {
		r := e13Phase(gw, reg, tokens, cfg, m)
		rows = append(rows, r)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%dx", r.Multiplier), itoa(r.Offered), itoa(r.Served),
			i64(r.Queued), itoa(r.Shed), itoa(r.Errors), dur(r.P50), dur(r.P99), dur(r.ShedP99)})
	}
	first, last := rows[0], rows[len(rows)-1]
	t.Bars = []Bar{
		check("errored requests, max", most(rows, func(r e13Row) int { return r.Errors }), "==", 0),
		check("phases where served + shed = offered", count(rows, func(r e13Row) bool { return r.Served+r.Shed == r.Offered }), "==", len(rows)),
		check(fmt.Sprintf("shed at %dx", first.Multiplier), first.Shed, "==", 0),
		check(fmt.Sprintf("shed at %dx", last.Multiplier), last.Shed, ">", 0),
		check(fmt.Sprintf("admitted p99 at %dx", last.Multiplier), last.P99, "<=", cfg.AdmittedP99Budget),
		check(fmt.Sprintf("shed p99 at %dx", last.Multiplier), last.ShedP99, "<=", cfg.ShedP99Budget),
		// One pooled proxy connection per user, not one per client.
		check("pooled proxy dials", reg.Counter(metrics.GatePoolDials).Value(), "==", int64(cfg.Users)),
	}
	t.Bars = append(t.Bars, e13Drain(gw, tokens[0], cfg.DrainUploads)...)
	return t, nil
}

// loginToken takes the session token out of a login reply.
func loginToken(rr *httptest.ResponseRecorder) (string, error) {
	if rr.Code != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", rr.Code, rr.Body)
	}
	var reply struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil || reply.Token == "" {
		return "", fmt.Errorf("reply without token: %q", rr.Body)
	}
	return reply.Token, nil
}

// e13Phase offers ~cfg.Clients requests at multiplier×Capacity
// concurrency and collects the outcome split and latency percentiles.
// The load arrives in synchronized waves — `concurrency` clients firing
// at the same instant, repeated until the phase budget is spent — the
// thundering-herd arrival pattern admission control exists for. A
// free-running open loop would let the scheduler drain sub-millisecond
// requests faster than it starts them and never fill the queue.
func e13Phase(gw *gate.Gateway, reg *metrics.Registry, tokens []string, cfg e13Config, multiplier int) e13Row {
	concurrency := multiplier * cfg.Capacity
	waves := cfg.Clients / concurrency
	if waves < 1 {
		waves = 1
	}
	queuedBefore := reg.Counter(metrics.GateQueued).Value()

	type outcome struct {
		served, shed, errors int
		servedLat, shedLat   []time.Duration
	}
	outcomes := make([]outcome, concurrency)
	for wave := 0; wave < waves; wave++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				o := &outcomes[w]
				req := httptest.NewRequest(http.MethodGet, "/api/jobs", nil)
				req.Header.Set("Authorization", "Bearer "+tokens[w%len(tokens)])
				rr := httptest.NewRecorder()
				<-start
				began := time.Now()
				gw.ServeHTTP(rr, req)
				lat := time.Since(began)
				switch {
				case rr.Code == http.StatusOK:
					o.served++
					o.servedLat = append(o.servedLat, lat)
				case rr.Code == http.StatusTooManyRequests && rr.Header().Get("Retry-After") != "":
					o.shed++
					o.shedLat = append(o.shedLat, lat)
				default:
					o.errors++
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}

	row := e13Row{Multiplier: multiplier, Offered: waves * concurrency}
	var servedLat, shedLat []time.Duration
	for i := range outcomes {
		row.Served += outcomes[i].served
		row.Shed += outcomes[i].shed
		row.Errors += outcomes[i].errors
		servedLat = append(servedLat, outcomes[i].servedLat...)
		shedLat = append(shedLat, outcomes[i].shedLat...)
	}
	row.Queued = reg.Counter(metrics.GateQueued).Value() - queuedBefore
	row.P50 = percentile(servedLat, 50)
	row.P99 = percentile(servedLat, 99)
	row.ShedP99 = percentile(shedLat, 99)
	return row
}

// e13Drain parks uploads mid-body with a slow-loris injector, drains the
// gateway, and bars its outcome: every admitted upload completes — the
// zero-dropped-in-flight bar for SIGTERM handling.
func e13Drain(gw *gate.Gateway, token string, uploads int) []Bar {
	loris := &failure.SlowLoris{Chunk: 16}
	loris.Stall()
	codes := make(chan int, uploads)
	for i := 0; i < uploads; i++ {
		go func(i int) {
			payload := fmt.Sprintf("e13 drain upload %d", i)
			req := httptest.NewRequest(http.MethodPost,
				fmt.Sprintf("/api/files?name=drain%d", i), loris.Body([]byte(payload)))
			req.Header.Set("Authorization", "Bearer "+token)
			rr := httptest.NewRecorder()
			gw.ServeHTTP(rr, req)
			codes <- rr.Code
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for gw.InFlight() < int64(uploads) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	inFlight := gw.InFlight()

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- gw.Drain(drainCtx) }()

	// New arrivals must be refused while the uploads are still parked.
	refused := false
	for !refused && time.Now().Before(deadline) {
		req := httptest.NewRequest(http.MethodGet, "/api/jobs", nil)
		req.Header.Set("Authorization", "Bearer "+token)
		rr := httptest.NewRecorder()
		gw.ServeHTTP(rr, req)
		if refused = rr.Code == http.StatusServiceUnavailable; !refused {
			time.Sleep(time.Millisecond)
		}
	}

	loris.Heal()
	dropped := 0
	for i := 0; i < uploads; i++ {
		if code := <-codes; code != http.StatusCreated {
			dropped++
		}
	}
	return []Bar{
		check("uploads in flight before drain", inFlight, ">=", int64(uploads)),
		holds("draining gateway refuses new requests", refused),
		holds("drain completes", <-drainDone == nil),
		check("in-flight uploads dropped by drain", dropped, "==", 0),
	}
}

// percentile returns the p-th percentile of lats (nearest-rank); zero
// for an empty set.
func percentile(lats []time.Duration, p int) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := (len(lats)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return lats[idx]
}
