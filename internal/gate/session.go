package gate

import (
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"sync"
	"time"

	"gridproxy/internal/wire"
)

// sessionClaims is what a session token carries: the authenticated
// identity plus the service ticket the gateway presents to the proxy on
// the user's behalf. The ticket travels inside the sealed token rather
// than in gateway memory, so the gateway itself stays stateless across
// requests (and restarts, given a configured session key).
type sessionClaims struct {
	User   string
	Groups []string
	Ticket []byte
	Expiry time.Time
}

// sessionStore seals and opens session tokens and tracks revocations.
// Tokens are HMAC-SHA256 sealed wire-encoded claims, base64url encoded
// for cookie/header transport — the same construction internal/ticket
// uses, one trust domain down.
type sessionStore struct {
	key   []byte
	ttl   time.Duration
	clock func() time.Time

	mu sync.Mutex
	// revoked maps sha256(token) -> token expiry; entries are pruned
	// once the token would have died of old age anyway.
	revoked map[[sha256.Size]byte]time.Time
}

func newSessionStore(key []byte, ttl time.Duration, clock func() time.Time) (*sessionStore, error) {
	if len(key) == 0 {
		key = make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return nil, fmt.Errorf("gate: generate session key: %w", err)
		}
	} else {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	return &sessionStore{
		key:     key,
		ttl:     ttl,
		clock:   clock,
		revoked: make(map[[sha256.Size]byte]time.Time),
	}, nil
}

// mint seals a new session token. The expiry is now+ttl, capped by the
// carried ticket's own expiry when known.
func (s *sessionStore) mint(user string, groups []string, tick []byte, ticketExpiry time.Time) (string, time.Time) {
	expiry := s.clock().Add(s.ttl)
	if !ticketExpiry.IsZero() && ticketExpiry.Before(expiry) {
		expiry = ticketExpiry
	}
	body := wire.AppendString(nil, user)
	body = wire.AppendStringSlice(body, groups)
	body = wire.AppendBytes(body, tick)
	body = wire.AppendInt64(body, expiry.Unix())
	mac := hmac.New(sha256.New, s.key)
	mac.Write(body)
	return base64.RawURLEncoding.EncodeToString(mac.Sum(body)), expiry
}

// open verifies a token and returns its claims. Forged, malformed,
// expired, and revoked tokens all fail the same way.
func (s *sessionStore) open(token string) (sessionClaims, error) {
	sealed, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil || len(sealed) < sha256.Size {
		return sessionClaims{}, ErrNoSession
	}
	body, sum := sealed[:len(sealed)-sha256.Size], sealed[len(sealed)-sha256.Size:]
	mac := hmac.New(sha256.New, s.key)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), sum) {
		return sessionClaims{}, ErrNoSession
	}
	buf := wire.NewBuffer(body)
	sc := sessionClaims{
		User:   buf.String(),
		Groups: buf.StringSlice(),
		Ticket: buf.Bytes(),
	}
	sc.Expiry = time.Unix(buf.Int64(), 0)
	if buf.Err() != nil {
		return sessionClaims{}, ErrNoSession
	}
	if s.clock().After(sc.Expiry) {
		return sessionClaims{}, ErrNoSession
	}
	s.mu.Lock()
	_, dead := s.revoked[sha256.Sum256([]byte(token))]
	s.mu.Unlock()
	if dead {
		return sessionClaims{}, ErrNoSession
	}
	return sc, nil
}

// revoke invalidates a token ahead of its natural expiry (logout).
func (s *sessionStore) revoke(token string, expiry time.Time) {
	s.mu.Lock()
	s.revoked[sha256.Sum256([]byte(token))] = expiry
	s.mu.Unlock()
}

// prune drops revocations for tokens that have expired on their own.
func (s *sessionStore) prune(now time.Time) {
	s.mu.Lock()
	for h, expiry := range s.revoked {
		if now.After(expiry) {
			delete(s.revoked, h)
		}
	}
	s.mu.Unlock()
}

// --- request-context plumbing ----------------------------------------------

type sessionCtxKey struct{}

type sessionCtx struct {
	claims sessionClaims
	token  string
}

func withSession(ctx context.Context, sc sessionClaims, token string) context.Context {
	return context.WithValue(ctx, sessionCtxKey{}, sessionCtx{claims: sc, token: token})
}

func sessionFrom(ctx context.Context) (sessionClaims, string, bool) {
	v, ok := ctx.Value(sessionCtxKey{}).(sessionCtx)
	if !ok {
		return sessionClaims{}, "", false
	}
	return v.claims, v.token, true
}
