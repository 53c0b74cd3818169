package experiments

import (
	"fmt"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/metrics"
	"gridproxy/internal/ticket"
)

// e5Row is one (scheme, requests-per-session) authentication measurement.
type e5Row struct {
	Scheme    string // "per-request" or "ticket"
	Requests  int
	AuthOps   int64 // expensive password/signature verifications
	TicketOps int64 // cheap HMAC validations
	Total     time.Duration
	PerReq    time.Duration
}

// e5Config parameterizes experiment E5.
type e5Config struct {
	// RequestCounts sweeps session lengths.
	RequestCounts []int
}

// e5 compares the paper's first-phase authentication (credentials
// verified on every request) with its foreseen Kerberos-style replacement
// ("a single authentication per session, with the access rights stored
// safely in a ticket and reused transparently"). Expected shape: the
// ticket scheme performs exactly one expensive operation per session and
// amortizes to near-zero per-request cost.
func e5(cfg e5Config) (Table, error) {
	t := Table{
		Title:  "E5 — per-request authentication vs Kerberos-style tickets",
		Claim:  "tickets need a single expensive authentication per session, reused transparently",
		Header: []string{"scheme", "requests", "auth_ops", "ticket_ops", "total", "per_request"},
	}
	var perReqs, tickets []e5Row
	for _, requests := range cfg.RequestCounts {
		perReq, err := runE5PerRequest(requests)
		if err != nil {
			return Table{}, fmt.Errorf("e5 per-request %d: %w", requests, err)
		}
		tick, err := runE5Ticket(requests)
		if err != nil {
			return Table{}, fmt.Errorf("e5 ticket %d: %w", requests, err)
		}
		perReqs, tickets = append(perReqs, perReq), append(tickets, tick)
		for _, r := range []e5Row{perReq, tick} {
			t.Rows = append(t.Rows, []string{
				r.Scheme, itoa(r.Requests), i64(r.AuthOps), i64(r.TicketOps), dur(r.Total), dur(r.PerReq),
			})
		}
	}
	n := len(cfg.RequestCounts)
	t.Bars = []Bar{
		check("per-request sessions with auth_ops = requests", count(perReqs, func(r e5Row) bool { return r.AuthOps == int64(r.Requests) }), "==", n),
		check("ticket sessions with auth_ops = 1 (single sign-on)", count(tickets, func(r e5Row) bool { return r.AuthOps == 1 }), "==", n),
		check("ticket sessions with ticket_ops >= requests", count(tickets, func(r e5Row) bool { return r.TicketOps >= int64(r.Requests) }), "==", n),
	}
	return t, nil
}

func newE5Store(reg *metrics.Registry) (*auth.Store, error) {
	store, err := auth.NewStore(auth.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	if err := store.AddUser("alice", "correct horse battery staple"); err != nil {
		return nil, err
	}
	return store, nil
}

func runE5PerRequest(requests int) (e5Row, error) {
	reg := metrics.NewRegistry()
	store, err := newE5Store(reg)
	if err != nil {
		return e5Row{}, err
	}
	start := time.Now()
	for i := 0; i < requests; i++ {
		if err := store.VerifyPassword("alice", "correct horse battery staple"); err != nil {
			return e5Row{}, err
		}
	}
	total := time.Since(start)
	return e5Row{
		Scheme:    "per-request",
		Requests:  requests,
		AuthOps:   reg.Counter(metrics.AuthOps).Value(),
		TicketOps: reg.Counter(metrics.TicketOps).Value(),
		Total:     total,
		PerReq:    total / time.Duration(requests),
	}, nil
}

func runE5Ticket(requests int) (e5Row, error) {
	reg := metrics.NewRegistry()
	store, err := newE5Store(reg)
	if err != nil {
		return e5Row{}, err
	}
	tgs, err := ticket.NewGrantingService(store, ticket.WithMetrics(reg))
	if err != nil {
		return e5Row{}, err
	}
	key, err := tgs.RegisterService("proxy:siteb")
	if err != nil {
		return e5Row{}, err
	}
	validator := ticket.NewValidator("proxy:siteb", key, reg)

	start := time.Now()
	// Single sign-on (the one expensive operation of the session).
	tgt, err := tgs.SignOnPassword("alice", "correct horse battery staple")
	if err != nil {
		return e5Row{}, err
	}
	tick, err := tgs.GrantTicket(tgt, "proxy:siteb")
	if err != nil {
		return e5Row{}, err
	}
	// Every request validates the ticket (one HMAC), no user
	// interaction, no password.
	for i := 0; i < requests; i++ {
		if _, err := validator.Validate(tick); err != nil {
			return e5Row{}, err
		}
	}
	total := time.Since(start)
	return e5Row{
		Scheme:    "ticket",
		Requests:  requests,
		AuthOps:   reg.Counter(metrics.AuthOps).Value(),
		TicketOps: reg.Counter(metrics.TicketOps).Value(),
		Total:     total,
		PerReq:    total / time.Duration(requests),
	}, nil
}
