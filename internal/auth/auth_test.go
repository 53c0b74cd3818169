package auth

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"testing"

	"gridproxy/internal/metrics"
)

func newStore(t *testing.T, opts ...StoreOption) *Store {
	t.Helper()
	s, err := NewStore(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPasswordVerification(t *testing.T) {
	s := newStore(t)
	if err := s.AddUser("alice", "correct horse"); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyPassword("alice", "correct horse"); err != nil {
		t.Errorf("valid password rejected: %v", err)
	}
	if err := s.VerifyPassword("alice", "wrong"); !errors.Is(err, ErrInvalidCredentials) {
		t.Errorf("wrong password: %v", err)
	}
	if err := s.VerifyPassword("mallory", "correct horse"); !errors.Is(err, ErrInvalidCredentials) {
		t.Errorf("unknown user: %v", err)
	}
}

func TestDuplicateUser(t *testing.T) {
	s := newStore(t)
	if err := s.AddUser("alice", "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddUser("alice", "y"); !errors.Is(err, ErrUserExists) {
		t.Errorf("duplicate AddUser = %v", err)
	}
}

func TestSignatureAuthentication(t *testing.T) {
	s := newStore(t)
	if err := s.AddUser("bob", "pw"); err != nil {
		t.Fatal(err)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPublicKey("bob", &key.PublicKey); err != nil {
		t.Fatal(err)
	}
	challenge, err := NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := SignChallenge(key, challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifySignature("bob", challenge, sig); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	// Wrong challenge.
	other, _ := NewChallenge()
	if err := s.VerifySignature("bob", other, sig); !errors.Is(err, ErrInvalidCredentials) {
		t.Errorf("signature over wrong challenge accepted: %v", err)
	}
	// Wrong key.
	otherKey, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	badSig, _ := SignChallenge(otherKey, challenge)
	if err := s.VerifySignature("bob", challenge, badSig); !errors.Is(err, ErrInvalidCredentials) {
		t.Errorf("foreign signature accepted: %v", err)
	}
	// User without a key.
	if err := s.AddUser("nokey", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifySignature("nokey", challenge, sig); !errors.Is(err, ErrInvalidCredentials) {
		t.Errorf("keyless user accepted: %v", err)
	}
}

func TestPermissions(t *testing.T) {
	s := newStore(t)
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := s.AddUser(u, "pw"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.GrantUser("alice", Permission{Action: "submit", Resource: "site:A"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToGroup("bob", "researchers"); err != nil {
		t.Fatal(err)
	}
	s.GrantGroup("researchers", Permission{Action: "status", Resource: "*"})

	tests := []struct {
		user, action, resource string
		want                   bool
	}{
		{"alice", "submit", "site:A", true},
		{"alice", "submit", "site:B", false},
		{"alice", "status", "site:A", false},
		{"bob", "status", "site:A", true},
		{"bob", "status", "site:B", true},
		{"bob", "submit", "site:A", false},
		{"carol", "status", "site:A", false},
		{"nobody", "status", "site:A", false},
	}
	for _, tt := range tests {
		err := s.Allowed(tt.user, tt.action, tt.resource)
		if got := err == nil; got != tt.want {
			t.Errorf("Allowed(%s,%s,%s) = %v, want %v", tt.user, tt.action, tt.resource, err, tt.want)
		}
		if err != nil && !errors.Is(err, ErrDenied) {
			t.Errorf("denial error not ErrDenied: %v", err)
		}
	}
}

func TestWildcardPatterns(t *testing.T) {
	tests := []struct {
		pattern, value string
		want           bool
	}{
		{"*", "anything", true},
		{"submit", "submit", true},
		{"submit", "status", false},
		{"site:*", "site:A", true},
		{"site:*", "node:A", false},
		{"site:A", "site:AB", false},
	}
	for _, tt := range tests {
		if got := matchPattern(tt.pattern, tt.value); got != tt.want {
			t.Errorf("matchPattern(%q,%q) = %v, want %v", tt.pattern, tt.value, got, tt.want)
		}
	}
}

func TestAuthOpsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newStore(t, WithMetrics(reg))
	if err := s.AddUser("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	_ = s.VerifyPassword("alice", "pw")
	_ = s.VerifyPassword("alice", "bad")
	if got := reg.Counter(metrics.AuthOps).Value(); got != 2 {
		t.Errorf("AuthOps = %d, want 2", got)
	}
}

func TestGroups(t *testing.T) {
	s := newStore(t)
	if err := s.AddUser("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToGroup("alice", "g1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToGroup("alice", "g2"); err != nil {
		t.Fatal(err)
	}
	groups := s.Groups("alice")
	if len(groups) != 2 {
		t.Errorf("Groups = %v", groups)
	}
	if got := s.Groups("nobody"); got != nil {
		t.Errorf("Groups(nobody) = %v", got)
	}
	if err := s.AddToGroup("nobody", "g"); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("AddToGroup unknown = %v", err)
	}
}

func TestPBKDF2Deterministic(t *testing.T) {
	salt := []byte("0123456789abcdef")
	k1 := pbkdf2Key([]byte("pw"), salt)
	k2 := pbkdf2Key([]byte("pw"), salt)
	if string(k1) != string(k2) {
		t.Error("pbkdf2 not deterministic")
	}
	k3 := pbkdf2Key([]byte("pw"), []byte("fedcba9876543210"))
	if string(k1) == string(k3) {
		t.Error("different salts produced same key")
	}
	k4 := pbkdf2Key([]byte("pw2"), salt)
	if string(k1) == string(k4) {
		t.Error("different passwords produced same key")
	}
	if len(k1) != keySize {
		t.Errorf("key size = %d", len(k1))
	}
}
