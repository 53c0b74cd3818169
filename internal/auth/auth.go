// Package auth implements the grid's user-authentication and permission
// layer (paper layer 2, client side): "this layer is responsible for
// providing user authentication and right of access ... blocks unauthorized
// access to the resources".
//
// Three mechanisms from the paper are provided:
//
//   - userid/password verification (salted, iterated PBKDF2-HMAC-SHA256);
//   - digital-signature challenge/response using the user's ECDSA key
//     (certificates issued by the grid CA);
//   - per-user and per-group access permissions ("Access permissions can
//     be controlled individually or by user groups"), validated at both
//     the originating and destination proxies.
//
// The package holds identity and access rights only. The sealed
// credentials that let a session skip the expensive verification —
// tickets and session tokens — are package ticket's.
package auth

import (
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"gridproxy/internal/metrics"
)

// Authentication errors. They are deliberately coarse so callers cannot
// distinguish "no such user" from "bad password".
var (
	// ErrInvalidCredentials covers unknown users and failed proofs.
	ErrInvalidCredentials = errors.New("auth: invalid credentials")
	// ErrDenied indicates an authenticated user without the required
	// permission.
	ErrDenied = errors.New("auth: permission denied")
	// ErrUserExists is returned by AddUser for duplicates.
	ErrUserExists = errors.New("auth: user already exists")
	// ErrNoSuchUser is returned by mutation calls on unknown users.
	ErrNoSuchUser = errors.New("auth: no such user")
)

// PBKDF2 parameters. The iteration count is modest because the threat
// model is on-the-wire replay, not offline GPU cracking of a stolen store;
// tests and benchmarks run thousands of verifications.
const (
	pbkdf2Iterations = 4096
	saltSize         = 16
	keySize          = 32
)

// Permission is one (action, resource) capability. Both fields support the
// "*" wildcard. Resources follow "kind:name" naming, e.g. "site:ufscar".
type Permission struct {
	Action   string
	Resource string
}

func (p Permission) matches(action, resource string) bool {
	return matchPattern(p.Action, action) && matchPattern(p.Resource, resource)
}

// matchPattern supports exact match, "*", and "prefix*" patterns.
func matchPattern(pattern, value string) bool {
	if pattern == "*" || pattern == value {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(value, strings.TrimSuffix(pattern, "*"))
	}
	return false
}

// user is the stored record for one grid user.
type user struct {
	name   string
	groups map[string]bool
	salt   []byte
	hash   []byte
	pubKey *ecdsa.PublicKey
	perms  []Permission
}

// Store holds users, groups, and permissions for one grid (conventionally
// replicated to every proxy's configuration). It is safe for concurrent
// use.
type Store struct {
	mu         sync.RWMutex
	users      map[string]*user
	groupPerms map[string][]Permission
	reg        *metrics.Registry
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithMetrics wires a metrics registry into the store so expensive
// operations are counted (experiment E5).
func WithMetrics(reg *metrics.Registry) StoreOption {
	return func(s *Store) { s.reg = reg }
}

// NewStore creates an empty store. It never fails; the error result is
// kept for existing callers.
func NewStore(opts ...StoreOption) (*Store, error) {
	s := &Store{
		users:      make(map[string]*user),
		groupPerms: make(map[string][]Permission),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// AddUser registers a user with a password. The password is stored as a
// salted PBKDF2 hash; the plaintext is never retained.
func (s *Store) AddUser(name, password string) error {
	salt := make([]byte, saltSize)
	if _, err := rand.Read(salt); err != nil {
		return fmt.Errorf("auth: generate salt: %w", err)
	}
	hash := pbkdf2Key([]byte(password), salt)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.users[name]; exists {
		return ErrUserExists
	}
	s.users[name] = &user{
		name:   name,
		groups: make(map[string]bool),
		salt:   salt,
		hash:   hash,
	}
	return nil
}

// SetPublicKey attaches the user's ECDSA public key (from their grid
// certificate) for signature authentication.
func (s *Store) SetPublicKey(name string, pub *ecdsa.PublicKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return ErrNoSuchUser
	}
	u.pubKey = pub
	return nil
}

// AddToGroup puts the user in a group.
func (s *Store) AddToGroup(name, group string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return ErrNoSuchUser
	}
	u.groups[group] = true
	return nil
}

// GrantUser gives one user a permission.
func (s *Store) GrantUser(name string, perm Permission) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.users[name]
	if !ok {
		return ErrNoSuchUser
	}
	u.perms = append(u.perms, perm)
	return nil
}

// GrantGroup gives every member of a group a permission.
func (s *Store) GrantGroup(group string, perm Permission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groupPerms[group] = append(s.groupPerms[group], perm)
}

// Groups returns the groups a user belongs to.
func (s *Store) Groups(name string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[name]
	if !ok {
		return nil
	}
	groups := make([]string, 0, len(u.groups))
	for g := range u.groups {
		groups = append(groups, g)
	}
	return groups
}

// VerifyPassword checks a userid/password pair. This is a deliberately
// expensive operation (PBKDF2) counted under metrics.AuthOps.
func (s *Store) VerifyPassword(name, password string) error {
	s.reg.Counter(metrics.AuthOps).Inc()
	s.mu.RLock()
	u, ok := s.users[name]
	var salt, want []byte
	if ok {
		salt = u.salt
		want = u.hash
	}
	s.mu.RUnlock()
	if !ok {
		// Burn the same work for unknown users to level timing.
		_ = pbkdf2Key([]byte(password), make([]byte, saltSize))
		return ErrInvalidCredentials
	}
	got := pbkdf2Key([]byte(password), salt)
	if subtle.ConstantTimeCompare(got, want) != 1 {
		return ErrInvalidCredentials
	}
	return nil
}

// NewChallenge returns a fresh random challenge for signature
// authentication.
func NewChallenge() ([]byte, error) {
	c := make([]byte, 32)
	if _, err := rand.Read(c); err != nil {
		return nil, fmt.Errorf("auth: generate challenge: %w", err)
	}
	return c, nil
}

// SignChallenge produces the user's proof over a server challenge. The
// digital-signature scheme is ECDSA over SHA-256, matching the grid CA's
// key type.
func SignChallenge(key *ecdsa.PrivateKey, challenge []byte) ([]byte, error) {
	digest := sha256.Sum256(challenge)
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("auth: sign challenge: %w", err)
	}
	return sig, nil
}

// VerifySignature checks a user's signature over a challenge. Counted
// under metrics.AuthOps.
func (s *Store) VerifySignature(name string, challenge, sig []byte) error {
	s.reg.Counter(metrics.AuthOps).Inc()
	s.mu.RLock()
	u, ok := s.users[name]
	var pub *ecdsa.PublicKey
	if ok {
		pub = u.pubKey
	}
	s.mu.RUnlock()
	if !ok || pub == nil {
		return ErrInvalidCredentials
	}
	digest := sha256.Sum256(challenge)
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		return ErrInvalidCredentials
	}
	return nil
}

// Allowed reports whether the user holds (action, resource), either
// directly or through a group. Unknown users are denied.
func (s *Store) Allowed(name, action, resource string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	u, ok := s.users[name]
	if !ok {
		return fmt.Errorf("%w: user %q action %q resource %q", ErrDenied, name, action, resource)
	}
	for _, p := range u.perms {
		if p.matches(action, resource) {
			return nil
		}
	}
	for g := range u.groups {
		for _, p := range s.groupPerms[g] {
			if p.matches(action, resource) {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: user %q action %q resource %q", ErrDenied, name, action, resource)
}

// pbkdf2Key derives a key from password and salt with HMAC-SHA256
// (PBKDF2, RFC 2898) — implemented here because the repository is
// stdlib-only.
func pbkdf2Key(password, salt []byte) []byte {
	prf := hmac.New(sha256.New, password)
	// Single output block suffices for a 32-byte key with SHA-256.
	var block [4]byte
	binary.BigEndian.PutUint32(block[:], 1)
	prf.Write(salt)
	prf.Write(block[:])
	u := prf.Sum(nil)
	out := make([]byte, len(u))
	copy(out, u)
	for i := 1; i < pbkdf2Iterations; i++ {
		prf.Reset()
		prf.Write(u)
		u = prf.Sum(u[:0])
		for j := range out {
			out[j] ^= u[j]
		}
	}
	return out[:keySize]
}
