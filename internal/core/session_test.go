package core_test

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/site"
	"gridproxy/internal/ticket"
	"gridproxy/internal/wire"
)

const badToken = "invalid session token"

// spliceReason presents token to s's splice service and returns the
// reason it refused the splice. The target names no site, so a splice
// whose token passes is refused for that instead.
func spliceReason(t *testing.T, s *site.Site, token []byte) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := s.Local.Dial(ctx, s.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	open := &proto.StreamOpen{AppID: "app", TargetSite: "nowhere", TargetAddr: "x", Kind: proto.StreamData, Token: token}
	if err := proto.WriteMessage(wire.NewWriter(conn), proto.Marshal(1, open)); err != nil {
		t.Fatal(err)
	}
	msg, err := proto.ReadMessage(wire.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	body, err := proto.Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := body.(*proto.StreamOpenReply)
	if !ok || reply.OK {
		t.Fatalf("splice reply %+v", body)
	}
	return reply.Reason
}

// TestSessionTokenPurposes: the token Auth hands out is a Session claim
// of the proxy that sealed it. It opens that proxy's splice until it
// expires, and nowhere else: not at another proxy, not as a ticket, not
// once tampered with. A service ticket does not open a splice, and a
// ticket for a user the site does not know opens no session.
func TestSessionTokenPurposes(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := &movableClock{t: time.Unix(1_700_000_000, 0)}
	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "sessions",
		Metrics:  reg,
		Clock:    clock.Now,
		Sites: []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(1, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(1, 1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	a, b := tb.Sites[0], tb.Sites[1]
	c := dialRaw(t, a)
	auth := func(req *proto.AuthRequest) *proto.AuthReply {
		t.Helper()
		reply, ok := c.call(req).(*proto.AuthReply)
		if !ok {
			t.Fatalf("auth reply %T", reply)
		}
		return reply
	}
	login := auth(&proto.AuthRequest{User: "admin", Method: proto.AuthPassword, PasswordProof: []byte("admin")})
	if !login.OK {
		t.Fatalf("login: %+v", login)
	}
	if !time.Unix(login.ExpiresUnix, 0).Equal(clock.Now().Add(8 * time.Hour)) {
		t.Errorf("session expires %v", time.Unix(login.ExpiresUnix, 0))
	}

	ops := reg.Counter(metrics.TicketOps)
	before := ops.Value()
	if got := spliceReason(t, a, login.Token); got == badToken {
		t.Error("session token refused by the proxy that sealed it")
	}
	if ops.Value() != before+1 {
		t.Errorf("%s moved %d → %d over one splice", metrics.TicketOps, before, ops.Value())
	}
	if got := spliceReason(t, b, login.Token); got != badToken {
		t.Errorf("sitea's token at siteb: %q", got)
	}
	tampered := append([]byte(nil), login.Token...)
	tampered[len(tampered)/2] ^= 1
	if got := spliceReason(t, a, tampered); got != badToken {
		t.Errorf("tampered token: %q", got)
	}
	forged := func(garbage []byte) bool { return spliceReason(t, a, garbage) == badToken }
	if err := quick.Check(forged, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	// A session token is no ticket.
	if r := auth(&proto.AuthRequest{User: "admin", Method: proto.AuthTicket, Ticket: login.Token}); r.OK || r.Reason != "invalid ticket" {
		t.Errorf("session token as a ticket: %+v", r)
	}
	// A ticket is no session token.
	tgt, err := tb.TGS.SignOnPassword("admin", "admin")
	if err != nil {
		t.Fatal(err)
	}
	tick, err := tb.TGS.GrantTicket(tgt, core.ServiceName("sitea"))
	if err != nil {
		t.Fatal(err)
	}
	for name, cred := range map[string][]byte{"service ticket": tick, "TGT": tgt} {
		if got := spliceReason(t, a, cred); got != badToken {
			t.Errorf("%s as a splice token: %q", name, got)
		}
	}
	if r := auth(&proto.AuthRequest{User: "admin", Method: proto.AuthTicket, Ticket: tick}); !r.OK {
		t.Errorf("ticket login: %+v", r)
	}
	// A well-sealed ticket for a user this site does not know.
	key, err := tb.TGS.RegisterService(core.ServiceName("sitea"))
	if err != nil {
		t.Fatal(err)
	}
	stranger := ticket.Seal(key, ticket.Claims{Purpose: ticket.Service, User: "mallory",
		Service: core.ServiceName("sitea"), Expiry: clock.Now().Add(time.Hour)})
	if r := auth(&proto.AuthRequest{User: "mallory", Method: proto.AuthTicket, Ticket: stranger}); r.OK {
		t.Errorf("ticket of an unknown user: %+v", r)
	}

	// Expiry.
	clock.Advance(8*time.Hour + time.Second)
	if got := spliceReason(t, a, login.Token); got != badToken {
		t.Errorf("expired token: %q", got)
	}
}
