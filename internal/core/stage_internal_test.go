package core

import (
	"context"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
)

// TestCorruptInlinedOutputIsPulled: a completion report carries an output
// whose bytes were damaged on the way. It does not enter the store under
// the ref's name; the pull plan fetches the blob as if the report had
// carried none, and the job is done.
func TestCorruptInlinedOutputIsPulled(t *testing.T) {
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	wan := transport.NewMemNetwork()
	reg := metrics.NewRegistry()
	mk := func(site string) *Proxy {
		p, err := New(Config{Site: site, WANAddr: "wan." + site, WAN: wan, Local: transport.NewMemNetwork(), Users: users, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	origin, dest := mk("org"), mk("dst")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := origin.Connect(ctx, "dst", "wan.dst"); err != nil {
		t.Fatal(err)
	}

	published := []byte("what the remote rank published")
	ref := dest.Store().Put(published)
	launch := &Launch{AppID: "app1", proxy: origin, remote: map[string]int{"dst": 1}, done: make(chan struct{})}
	if _, _, err := origin.open("app1", LaunchSpec{}, nil, launch, nil); err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), published...)
	damaged[3] ^= 0x40
	origin.handleJobUpdate(ctx, &proto.JobUpdate{
		JobID: "app1", State: proto.JobDone, Site: "dst",
		Outputs: []proto.StageRef{{Name: "result", Hash: ref.Hash, Size: ref.Size}},
		Inline:  []proto.InlineOutput{{Ref: 0, Data: damaged}},
	})

	if err := launch.Wait(ctx); err != nil {
		t.Fatalf("job failed over a damaged inline output: %v", err)
	}
	if got, ok := origin.Store().Get(ref.Hash); !ok || string(got) != string(published) {
		t.Errorf("origin store holds %q under the output's hash, want what was published", got)
	}
	for name, want := range map[string]int64{
		metrics.StageOutputsInlined: 0,
		metrics.StagePulls:          1,
		metrics.StageOutputs:        1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if outs := launch.Outputs(); len(outs) != 1 || outs[0].Name != "result" {
		t.Errorf("recorded outputs %v, want the one ref", outs)
	}
}
