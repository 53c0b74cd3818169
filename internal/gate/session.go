package gate

import (
	"context"
	"crypto/sha256"
	"sync"
	"time"

	"gridproxy/internal/ticket"
)

// revocations is the set of logged-out sessions. It is keyed by the
// hash of the sealed bytes the token opened to — never by the text the
// client sent, which base64 lets it spell more than one way — and holds
// each entry until the session would have expired anyway. It lives in
// memory beside a per-process sealing key: a restart forgets it, and
// with it every session it could have revoked.
type revocations struct {
	mu      sync.Mutex
	revoked map[[sha256.Size]byte]time.Time
}

func newRevocations() *revocations {
	return &revocations{revoked: make(map[[sha256.Size]byte]time.Time)}
}

// add revokes a session ahead of its natural expiry (logout).
func (r *revocations) add(sealed []byte, expiry time.Time) {
	r.mu.Lock()
	r.revoked[sha256.Sum256(sealed)] = expiry
	r.mu.Unlock()
}

func (r *revocations) has(sealed []byte) bool {
	r.mu.Lock()
	_, dead := r.revoked[sha256.Sum256(sealed)]
	r.mu.Unlock()
	return dead
}

// prune drops revocations of sessions that have expired on their own.
func (r *revocations) prune(now time.Time) {
	r.mu.Lock()
	for h, expiry := range r.revoked {
		if now.After(expiry) {
			delete(r.revoked, h)
		}
	}
	r.mu.Unlock()
}

// --- request-context plumbing ----------------------------------------------

type sessionCtxKey struct{}

type sessionCtx struct {
	claims ticket.Claims
	sealed []byte
}

func withSession(ctx context.Context, sc ticket.Claims, sealed []byte) context.Context {
	return context.WithValue(ctx, sessionCtxKey{}, sessionCtx{claims: sc, sealed: sealed})
}

// sessionFrom returns the request's session claims and the sealed bytes
// they were opened from.
func sessionFrom(ctx context.Context) (ticket.Claims, []byte, bool) {
	v, ok := ctx.Value(sessionCtxKey{}).(sessionCtx)
	if !ok {
		return ticket.Claims{}, nil, false
	}
	return v.claims, v.sealed, true
}
