// Package ticket is the grid's only sealed credential, and with it the
// Kerberos-style single sign-on the paper foresees as the replacement for
// per-request authentication: "a recognized authentication standard such
// as Kerberos, which requires a single authentication per session, with
// the access rights stored safely in a ticket and reused transparently,
// without the need for user intervention."
//
// Every credential in the tree is one Claims value sealed by Seal and
// opened by Open: a purpose byte, the claims, and an HMAC-SHA256 tag
// over both. The purpose says what the credential is for, and Open
// refuses any other, so a credential of one purpose never passes for
// another even under the same key:
//
//   - TGT: the Granting Service (TGS) authenticates a user once
//     (password or signature via an auth.Store) and seals a
//     ticket-granting ticket with its master key.
//   - Service: holding a TGT, the client asks for service tickets for
//     named services ("proxy:siteB"), each sealed with that service's
//     key and checked by the service's Validator with one HMAC — no
//     user interaction and no expensive public-key or password
//     operation.
//   - Session: a proxy, after Auth, and a gateway, after login, seal
//     the session they opened under a per-process random key; a
//     gateway's session carries the service ticket it presents to the
//     proxy as its inner credential.
package ticket

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// Lifetimes.
const (
	// DefaultTGTLifetime is how long a sign-on lasts.
	DefaultTGTLifetime = 10 * time.Hour
	// DefaultTicketLifetime is how long one service ticket lasts.
	DefaultTicketLifetime = 1 * time.Hour
	keySize               = 32
)

// Package errors.
var (
	// ErrInvalidTicket covers forged, malformed, expired and
	// wrong-purpose credentials.
	ErrInvalidTicket = errors.New("ticket: invalid or expired ticket")
	// ErrUnknownService indicates a ticket request for an unregistered
	// service.
	ErrUnknownService = errors.New("ticket: unknown service")
	// ErrWrongService indicates a ticket presented to a service other
	// than the one it was issued for.
	ErrWrongService = errors.New("ticket: ticket issued for a different service")
)

// Purpose says what a sealed credential is for. It leads the sealed
// body, under the tag.
type Purpose byte

// The purposes of a sealed credential.
const (
	// TGT is a ticket-granting ticket, sealed with the TGS master key.
	TGT Purpose = iota + 1
	// Service is a service ticket, sealed with the named service's key.
	Service
	// Session is a session token, sealed with the per-process key of
	// the proxy or gateway that opened the session.
	Session
)

// Claims is the authenticated identity a credential conveys.
type Claims struct {
	Purpose Purpose
	User    string
	Groups  []string
	// Service names the service a Service ticket is for.
	Service string
	Expiry  time.Time
	// Inner is one sealed credential the claim carries: a gateway's
	// Session holds the Service ticket it presents to the proxy.
	Inner []byte
}

// GrantingService is the grid's TGS. One instance runs alongside a
// designated proxy; services share per-service keys with it out of band
// (distributed with proxy configuration).
type GrantingService struct {
	mu          sync.RWMutex
	masterKey   []byte
	serviceKeys map[string][]byte
	users       *auth.Store
	clock       func() time.Time
	reg         *metrics.Registry
	tgtTTL      time.Duration
	ticketTTL   time.Duration
	skew        time.Duration
}

// Option configures a GrantingService.
type Option func(*GrantingService)

// WithClock overrides the time source (tests).
func WithClock(clock func() time.Time) Option {
	return func(g *GrantingService) { g.clock = clock }
}

// WithMetrics wires in experiment counters.
func WithMetrics(reg *metrics.Registry) Option {
	return func(g *GrantingService) { g.reg = reg }
}

// WithLifetimes overrides the TGT and service-ticket lifetimes.
func WithLifetimes(tgt, ticket time.Duration) Option {
	return func(g *GrantingService) {
		g.tgtTTL = tgt
		g.ticketTTL = ticket
	}
}

// WithSkew sets the clock-skew tolerance: a ticket whose expiry lies up
// to d in the past is still accepted. Zero (the default) means exact
// expiry. The same tolerance applies to TGT checks in GrantTicket.
func WithSkew(d time.Duration) Option {
	return func(g *GrantingService) { g.skew = d }
}

// WithMasterKey replaces the random master key with one derived from
// secret. Service keys derive from the master key, so two processes
// constructed from the same secret — e.g. a gridgate gateway and the
// gridproxyd it fronts — agree on every service key without any
// out-of-band key exchange.
func WithMasterKey(secret []byte) Option {
	return func(g *GrantingService) {
		sum := sha256.Sum256(secret)
		g.masterKey = sum[:]
	}
}

// NewGrantingService creates a TGS that authenticates users against store.
func NewGrantingService(store *auth.Store, opts ...Option) (*GrantingService, error) {
	master, err := NewKey()
	if err != nil {
		return nil, err
	}
	g := &GrantingService{
		masterKey:   master,
		serviceKeys: make(map[string][]byte),
		users:       store,
		clock:       time.Now,
		tgtTTL:      DefaultTGTLifetime,
		ticketTTL:   DefaultTicketLifetime,
	}
	for _, opt := range opts {
		opt(g)
	}
	return g, nil
}

// RegisterService enters a service and returns its key, the HMAC of the
// master key over the service name. The key is handed to the service's
// Validator. The error is always nil.
func (g *GrantingService) RegisterService(service string) ([]byte, error) {
	mac := hmac.New(sha256.New, g.masterKey)
	mac.Write([]byte("service-key:" + service))
	key := mac.Sum(nil)
	g.mu.Lock()
	g.serviceKeys[service] = key
	g.mu.Unlock()
	return key, nil
}

// TicketLifetime reports the configured service-ticket lifetime, so a
// gateway can cap its own session expiry at the carried ticket's.
func (g *GrantingService) TicketLifetime() time.Duration { return g.ticketTTL }

// TGTClaims opens a TGT issued by this TGS and returns its claims
// without granting anything. A gateway uses it after sign-on to learn
// the user's groups for quota and rate-limit bucketing.
func (g *GrantingService) TGTClaims(tgt []byte) (Claims, error) {
	return Open(g.masterKey, TGT, tgt, g.clock().Add(-g.skew))
}

// SignOnPassword performs the single expensive authentication of a session
// and returns a TGT.
func (g *GrantingService) SignOnPassword(user, password string) ([]byte, error) {
	if err := g.users.VerifyPassword(user, password); err != nil {
		return nil, err
	}
	return g.issueTGT(user)
}

// SignOnSignature authenticates via challenge signature and returns a TGT.
func (g *GrantingService) SignOnSignature(user string, challenge, sig []byte) ([]byte, error) {
	if err := g.users.VerifySignature(user, challenge, sig); err != nil {
		return nil, err
	}
	return g.issueTGT(user)
}

func (g *GrantingService) issueTGT(user string) ([]byte, error) {
	return Seal(g.masterKey, Claims{
		Purpose: TGT,
		User:    user,
		Groups:  g.users.Groups(user),
		Expiry:  g.clock().Add(g.tgtTTL),
	}), nil
}

// GrantTicket exchanges a valid TGT for a service ticket for service. This
// is the cheap, repeatable operation of E5: one HMAC to validate, one to
// seal.
func (g *GrantingService) GrantTicket(tgt []byte, service string) ([]byte, error) {
	g.reg.Counter(metrics.TicketOps).Inc()
	claims, err := g.TGTClaims(tgt)
	if err != nil {
		return nil, err
	}
	g.mu.RLock()
	key, ok := g.serviceKeys[service]
	g.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, service)
	}
	return Seal(key, Claims{
		Purpose: Service,
		User:    claims.User,
		Groups:  claims.Groups,
		Service: service,
		Expiry:  g.clock().Add(g.ticketTTL),
	}), nil
}

// Validator checks service tickets on the service side.
type Validator struct {
	service string
	key     []byte
	clock   func() time.Time
	reg     *metrics.Registry
	skew    time.Duration
}

// NewValidator creates a validator for one service with its shared key.
func NewValidator(service string, key []byte, reg *metrics.Registry) *Validator {
	return &Validator{service: service, key: key, clock: time.Now, reg: reg}
}

// WithValidatorClock returns a copy of v using the given time source.
func (v *Validator) WithValidatorClock(clock func() time.Time) *Validator {
	clone := *v
	clone.clock = clock
	return &clone
}

// WithValidatorSkew returns a copy of v accepting tickets whose expiry
// lies up to d in the past, absorbing clock drift between the TGS host
// and the validating service.
func (v *Validator) WithValidatorSkew(d time.Duration) *Validator {
	clone := *v
	clone.skew = d
	return &clone
}

// Validate opens a service ticket and returns its claims. One HMAC, no
// user store involved — the property the paper wants from Kerberos.
func (v *Validator) Validate(ticket []byte) (Claims, error) {
	v.reg.Counter(metrics.TicketOps).Inc()
	claims, err := Open(v.key, Service, ticket, v.clock().Add(-v.skew))
	if err != nil {
		return Claims{}, err
	}
	if claims.Service != v.service {
		return Claims{}, ErrWrongService
	}
	return claims, nil
}

// --- sealing ---------------------------------------------------------------

// NewKey returns a fresh random sealing key.
func NewKey() ([]byte, error) {
	key := make([]byte, keySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("ticket: generate key: %w", err)
	}
	return key, nil
}

// Seal encodes claims behind their purpose byte and appends an
// HMAC-SHA256 tag over both.
func Seal(key []byte, c Claims) []byte {
	body := append([]byte(nil), byte(c.Purpose))
	body = wire.AppendString(body, c.User)
	body = wire.AppendStringSlice(body, c.Groups)
	body = wire.AppendString(body, c.Service)
	body = wire.AppendInt64(body, c.Expiry.Unix())
	body = wire.AppendBytes(body, c.Inner)
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	return mac.Sum(body)
}

// Open verifies a sealed credential and decodes its claims. A forged or
// malformed credential, one sealed for a purpose other than want, and
// one whose expiry lies before now are all refused with
// ErrInvalidTicket; a caller that tolerates clock skew passes its clock
// minus the skew.
func Open(key []byte, want Purpose, sealed []byte, now time.Time) (Claims, error) {
	if len(sealed) < 1+sha256.Size || Purpose(sealed[0]) != want {
		return Claims{}, ErrInvalidTicket
	}
	body, sum := sealed[:len(sealed)-sha256.Size], sealed[len(sealed)-sha256.Size:]
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), sum) {
		return Claims{}, ErrInvalidTicket
	}
	buf := wire.NewBuffer(body[1:])
	c := Claims{
		Purpose: want,
		User:    buf.String(),
		Groups:  buf.StringSlice(),
		Service: buf.String(),
		Expiry:  time.Unix(buf.Int64(), 0),
		Inner:   buf.Bytes(),
	}
	if buf.Err() != nil || buf.Remaining() != 0 || now.After(c.Expiry) {
		return Claims{}, ErrInvalidTicket
	}
	return c, nil
}
