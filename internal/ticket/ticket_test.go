package ticket

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/metrics"
)

type fixture struct {
	store *auth.Store
	tgs   *GrantingService
	now   *time.Time
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	f := &fixture{now: &now}
	clock := func() time.Time { return *f.now }
	store, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddUser("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := store.AddToGroup("alice", "researchers"); err != nil {
		t.Fatal(err)
	}
	tgs, err := NewGrantingService(store, WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	f.store = store
	f.tgs = tgs
	return f
}

func TestSignOnAndTicketFlow(t *testing.T) {
	f := newFixture(t)
	key, err := f.tgs.RegisterService("proxy:siteB")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := f.tgs.SignOnPassword("alice", "pw")
	if err != nil {
		t.Fatalf("SignOnPassword: %v", err)
	}
	tick, err := f.tgs.GrantTicket(tgt, "proxy:siteB")
	if err != nil {
		t.Fatalf("GrantTicket: %v", err)
	}
	v := NewValidator("proxy:siteB", key, nil).WithValidatorClock(func() time.Time { return *f.now })
	claims, err := v.Validate(tick)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if claims.User != "alice" || claims.Service != "proxy:siteB" {
		t.Errorf("claims = %+v", claims)
	}
	if len(claims.Groups) != 1 || claims.Groups[0] != "researchers" {
		t.Errorf("groups = %v", claims.Groups)
	}
}

func TestSignOnWrongPassword(t *testing.T) {
	f := newFixture(t)
	if _, err := f.tgs.SignOnPassword("alice", "wrong"); !errors.Is(err, auth.ErrInvalidCredentials) {
		t.Errorf("wrong password sign-on: %v", err)
	}
}

func TestTicketForUnknownService(t *testing.T) {
	f := newFixture(t)
	tgt, err := f.tgs.SignOnPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.tgs.GrantTicket(tgt, "no-such"); !errors.Is(err, ErrUnknownService) {
		t.Errorf("unknown service: %v", err)
	}
}

func TestTicketWrongService(t *testing.T) {
	f := newFixture(t)
	keyB, err := f.tgs.RegisterService("proxy:siteB")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.tgs.RegisterService("proxy:siteC"); err != nil {
		t.Fatal(err)
	}
	tgt, err := f.tgs.SignOnPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	tickC, err := f.tgs.GrantTicket(tgt, "proxy:siteC")
	if err != nil {
		t.Fatal(err)
	}
	// Ticket for C presented to B: sealed with a different key, so it
	// fails MAC validation.
	vB := NewValidator("proxy:siteB", keyB, nil).WithValidatorClock(func() time.Time { return *f.now })
	if _, err := vB.Validate(tickC); err == nil {
		t.Error("ticket for service C accepted by service B")
	}
}

func TestExpiredTGT(t *testing.T) {
	f := newFixture(t)
	if _, err := f.tgs.RegisterService("svc"); err != nil {
		t.Fatal(err)
	}
	tgt, err := f.tgs.SignOnPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	*f.now = f.now.Add(DefaultTGTLifetime + time.Minute)
	if _, err := f.tgs.GrantTicket(tgt, "svc"); !errors.Is(err, ErrInvalidTicket) {
		t.Errorf("expired TGT: %v", err)
	}
}

func TestExpiredSessionTicket(t *testing.T) {
	f := newFixture(t)
	key, err := f.tgs.RegisterService("svc")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := f.tgs.SignOnPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	tick, err := f.tgs.GrantTicket(tgt, "svc")
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator("svc", key, nil).WithValidatorClock(func() time.Time { return *f.now })
	if _, err := v.Validate(tick); err != nil {
		t.Fatalf("fresh ticket: %v", err)
	}
	*f.now = f.now.Add(DefaultTicketLifetime + time.Minute)
	if _, err := v.Validate(tick); !errors.Is(err, ErrInvalidTicket) {
		t.Errorf("expired ticket: %v", err)
	}
}

func TestTGTNotUsableAsSessionTicket(t *testing.T) {
	f := newFixture(t)
	key, err := f.tgs.RegisterService("svc")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := f.tgs.SignOnPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator("svc", key, nil)
	if _, err := v.Validate(tgt); err == nil {
		t.Error("raw TGT accepted as session ticket")
	}
}

func TestSignOnSignature(t *testing.T) {
	f := newFixture(t)
	// Attach a key pair to alice.
	chal, err := auth.NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	cred := generateKey(t)
	if err := f.store.SetPublicKey("alice", &cred.PublicKey); err != nil {
		t.Fatal(err)
	}
	sig, err := auth.SignChallenge(cred, chal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.tgs.SignOnSignature("alice", chal, sig); err != nil {
		t.Errorf("signature sign-on failed: %v", err)
	}
	if _, err := f.tgs.SignOnSignature("alice", chal, []byte("garbage")); err == nil {
		t.Error("garbage signature accepted")
	}
}

func TestQuickForgedTicketsRejected(t *testing.T) {
	f := newFixture(t)
	key, err := f.tgs.RegisterService("svc")
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator("svc", key, nil)
	fn := func(garbage []byte) bool {
		_, err := v.Validate(garbage)
		return err != nil
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegisterServiceIdempotent(t *testing.T) {
	f := newFixture(t)
	k1, err := f.tgs.RegisterService("svc")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := f.tgs.RegisterService("svc")
	if err != nil {
		t.Fatal(err)
	}
	if string(k1) != string(k2) {
		t.Error("RegisterService not idempotent")
	}
}

func TestTicketOpsCounted(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	reg := metrics.NewRegistry()
	store, err := auth.NewStore(auth.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddUser("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	tgs, err := NewGrantingService(store, WithClock(clock), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	key, err := tgs.RegisterService("svc")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tgs.SignOnPassword("alice", "pw") // 1 AuthOp
	if err != nil {
		t.Fatal(err)
	}
	tick, err := tgs.GrantTicket(tgt, "svc") // 1 TicketOp
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator("svc", key, reg).WithValidatorClock(clock)
	for i := 0; i < 5; i++ { // 5 TicketOps
		if _, err := v.Validate(tick); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(metrics.AuthOps).Value(); got != 1 {
		t.Errorf("AuthOps = %d, want 1 (single sign-on)", got)
	}
	if got := reg.Counter(metrics.TicketOps).Value(); got != 6 {
		t.Errorf("TicketOps = %d, want 6", got)
	}
}

// generateKey returns a fresh ECDSA key for signature tests.
func generateKey(t *testing.T) *ecdsa.PrivateKey {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestClockSkewTolerance covers the WithSkew/WithValidatorSkew knobs: a
// ticket just past its expiry is still accepted within the tolerance,
// and still refused beyond it — absorbing drift between the TGS host
// and a validating proxy without loosening exact-expiry deployments.
func TestClockSkewTolerance(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	store, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddUser("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	tgs, err := NewGrantingService(store, WithClock(clock), WithSkew(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	key, err := tgs.RegisterService("svc")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tgs.SignOnPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	tick, err := tgs.GrantTicket(tgt, "svc")
	if err != nil {
		t.Fatal(err)
	}

	strict := NewValidator("svc", key, nil).WithValidatorClock(clock)
	lenient := strict.WithValidatorSkew(time.Minute)

	// 30s past expiry: within the minute of tolerated drift.
	now = now.Add(DefaultTicketLifetime + 30*time.Second)
	if _, err := strict.Validate(tick); !errors.Is(err, ErrInvalidTicket) {
		t.Errorf("strict validator within skew = %v", err)
	}
	if _, err := lenient.Validate(tick); err != nil {
		t.Errorf("lenient validator within skew = %v", err)
	}

	// 2m past expiry: beyond the tolerance for both.
	now = now.Add(90 * time.Second)
	if _, err := lenient.Validate(tick); !errors.Is(err, ErrInvalidTicket) {
		t.Errorf("lenient validator beyond skew = %v", err)
	}

	// The TGS applies the same tolerance to TGT checks in GrantTicket.
	now = time.Unix(1_700_000_000, 0).Add(DefaultTGTLifetime + 30*time.Second)
	if _, err := tgs.GrantTicket(tgt, "svc"); err != nil {
		t.Errorf("GrantTicket within TGT skew = %v", err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := tgs.GrantTicket(tgt, "svc"); !errors.Is(err, ErrInvalidTicket) {
		t.Errorf("GrantTicket beyond TGT skew = %v", err)
	}
}

// TestMasterKeyDerivation covers WithMasterKey: two granting services
// built from the same secret derive identical service keys, so a ticket
// granted by one validates against a key registered with the other — the
// gridgate/gridproxyd interop contract. A different secret does not.
func TestMasterKeyDerivation(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	store, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AddUser("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	newTGS := func(secret string) *GrantingService {
		tgs, err := NewGrantingService(store, WithClock(clock), WithMasterKey([]byte(secret)))
		if err != nil {
			t.Fatal(err)
		}
		return tgs
	}
	a, b := newTGS("shared"), newTGS("shared")

	keyA, err := a.RegisterService("proxy:sitea")
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := b.RegisterService("proxy:sitea")
	if err != nil {
		t.Fatal(err)
	}
	if string(keyA) != string(keyB) {
		t.Fatal("same secret derived different service keys")
	}

	// A grants; a validator keyed by b accepts. TGTs interop too: a TGT
	// issued by a is honoured by b.
	tgt, err := a.SignOnPassword("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	tick, err := a.GrantTicket(tgt, "proxy:sitea")
	if err != nil {
		t.Fatal(err)
	}
	v := NewValidator("proxy:sitea", keyB, nil).WithValidatorClock(clock)
	if _, err := v.Validate(tick); err != nil {
		t.Errorf("cross-process validate = %v", err)
	}
	if _, err := b.GrantTicket(tgt, "proxy:sitea"); err != nil {
		t.Errorf("cross-process TGT = %v", err)
	}

	// Different secrets share nothing.
	other, err := newTGS("different").RegisterService("proxy:sitea")
	if err != nil {
		t.Fatal(err)
	}
	if string(other) == string(keyA) {
		t.Error("different secrets derived the same key")
	}
	vOther := NewValidator("proxy:sitea", other, nil).WithValidatorClock(clock)
	if _, err := vOther.Validate(tick); !errors.Is(err, ErrInvalidTicket) {
		t.Errorf("wrong-secret validate = %v", err)
	}
}

// TestPurposeBinding: a credential opens only as the purpose it was
// sealed for. Every pair shares one key, so the refusal rests on the
// purpose, not on key separation.
func TestPurposeBinding(t *testing.T) {
	key := []byte("one key for every purpose")
	now := time.Unix(1_700_000_000, 0)
	purposes := map[Purpose]string{TGT: "TGT", Service: "Service", Session: "Session"}
	for sealedAs, sealedName := range purposes {
		sealed := Seal(key, Claims{Purpose: sealedAs, User: "alice", Groups: []string{"researchers"},
			Service: "proxy:sitea", Expiry: now.Add(time.Hour), Inner: []byte("inner")})
		for openAs, openName := range purposes {
			c, err := Open(key, openAs, sealed, now)
			switch {
			case openAs != sealedAs && !errors.Is(err, ErrInvalidTicket):
				t.Errorf("%s opened as %s: %+v, %v", sealedName, openName, c, err)
			case openAs == sealedAs && (err != nil || c.Purpose != sealedAs || c.User != "alice" || string(c.Inner) != "inner"):
				t.Errorf("%s round trip: %+v, %v", sealedName, c, err)
			}
		}
	}
}

// BenchmarkOpen is the cost of checking one credential: one HMAC over a
// sealed service ticket and its decode.
func BenchmarkOpen(b *testing.B) {
	key, err := NewKey()
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	sealed := Seal(key, Claims{Purpose: Service, User: "alice", Groups: []string{"researchers"}, Service: "proxy:sitea", Expiry: now.Add(time.Hour)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(key, Service, sealed, now); err != nil {
			b.Fatal(err)
		}
	}
}
