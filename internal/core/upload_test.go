package core_test

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/site"
	"gridproxy/internal/stage"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// rawClient speaks the client protocol one message at a time, so a test
// can send what grid.Client never would.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	w    *wire.Writer
	r    *wire.Reader
	corr uint64
}

func dialRaw(t *testing.T, s *site.Site) *rawClient {
	t.Helper()
	c := openRaw(t, s.Local, s.LocalAddr())
	if reply, ok := c.call(&proto.AuthRequest{User: "admin", Method: proto.AuthPassword, PasswordProof: []byte("admin")}).(*proto.AuthReply); !ok || !reply.OK {
		t.Fatalf("login: %+v", reply)
	}
	return c
}

// openRaw connects a rawClient to addr without logging in.
func openRaw(t *testing.T, network transport.Network, addr string) *rawClient {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := network.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, w: wire.NewWriter(conn), r: wire.NewReader(conn)}
}

// send writes one message under a fresh correlation id.
func (c *rawClient) send(code proto.Code, payload []byte) {
	c.t.Helper()
	c.corr++
	if err := proto.WriteMessage(c.w, proto.Message{Code: code, Corr: c.corr, Payload: payload}); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) reply() proto.Body {
	c.t.Helper()
	msg, err := proto.ReadMessage(c.r)
	if err != nil {
		c.t.Fatal(err)
	}
	body, err := proto.Unmarshal(msg)
	if err != nil {
		c.t.Fatal(err)
	}
	return body
}

func (c *rawClient) call(body proto.Body) proto.Body {
	c.t.Helper()
	c.send(body.Code(), proto.Append(nil, body))
	return c.reply()
}

// refused asserts that reply is an error of the given status.
func refused(t *testing.T, what string, reply proto.Body, status uint16) {
	t.Helper()
	if eb, ok := reply.(*proto.ErrorBody); !ok || eb.Status != status {
		t.Errorf("%s: reply %+v, want an error of status %d", what, reply, status)
	}
}

func seededBlob(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// waitQuiet waits until store's arena holds nothing beyond the blobs the
// store keeps and no View or ChunkLoan is outstanding. Releases follow
// the replies they made, so a test that has read its last reply polls.
func waitQuiet(t *testing.T, store *stage.Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		bytes, pins := store.Outstanding()
		if bytes == 0 && pins == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d bytes beyond its blobs and %d pins", bytes, pins)
		}
		time.Sleep(time.Millisecond)
	}
}

type movableClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *movableClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *movableClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestClientUploadRules drives the proxy's side of a chunked upload with
// everything an honest client does not send: every violation is a
// bad-request that drops the upload and stores nothing, the layouts of
// the previous protocol version are bad requests rather than short blobs,
// and the uploads one connection may hold open are bounded, with the ones
// a client walked away from making room after a while. Every upload that
// ends without a blob gives its buffer back.
func TestClientUploadRules(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := &movableClock{t: time.Unix(1_700_000_000, 0)}
	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "uploadrules",
		Metrics:  reg,
		Clock:    clock.Now,
		Sites:    []site.SiteSpec{{Name: "sitea", Nodes: site.UniformNodes(1, 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	store := tb.Sites[0].Proxy.Store()
	open := reg.Gauge(metrics.StageUploads)
	c := dialRaw(t, tb.Sites[0])
	ten := []byte("0123456789")

	refused(t, "chunk of an upload never opened",
		c.call(&proto.StagePut{Upload: 1, Offset: 10, Size: -1, Data: ten}), proto.StatusBadRequest)

	const big = 1 << 20 // announced sizes the proxy preallocates outside the heap
	if r, ok := c.call(&proto.StagePut{Upload: 2, Size: big, Data: ten}).(*proto.StagePutReply); !ok || r.Ref.Size != 10 || r.Ref.Hash != "" {
		t.Fatalf("first chunk: %+v", r)
	}
	if open.Value() != 1 {
		t.Fatalf("%s = %d with one upload open", metrics.StageUploads, open.Value())
	}
	refused(t, "chunk that skips ahead",
		c.call(&proto.StagePut{Upload: 2, Offset: 20, Size: big, Data: ten}), proto.StatusBadRequest)
	refused(t, "chunk of the upload the skip dropped",
		c.call(&proto.StagePut{Upload: 2, Offset: 10, Size: big, Data: ten}), proto.StatusBadRequest)

	c.call(&proto.StagePut{Upload: 3, Size: big, Data: ten})
	refused(t, "last chunk short of the announced size",
		c.call(&proto.StagePut{Upload: 3, Offset: 10, Size: big, Step: proto.PutLast, Data: ten}), proto.StatusBadRequest)

	c.call(&proto.StagePut{Upload: 4, Size: big, Data: ten})
	if _, ok := c.call(&proto.StagePut{Upload: 4, Size: -1, Step: proto.PutAbort}).(*proto.StagePutReply); !ok {
		t.Error("abort of an open upload refused")
	}
	if open.Value() != 0 || store.Blobs() != 0 {
		t.Fatalf("after four broken uploads: %d open, %d blobs stored", open.Value(), store.Blobs())
	}
	waitQuiet(t, store)

	// What a client of the previous protocol version would send.
	oldPut := wire.AppendBytes(wire.AppendString(nil, "params.bin"), ten)
	c.send(proto.CodeStagePut, oldPut)
	refused(t, "whole-blob put of protocol 3", c.reply(), proto.StatusBadRequest)
	c.send(proto.CodeStageGet, wire.AppendString(nil, store.Put(ten).Hash))
	refused(t, "whole-blob get of protocol 3", c.reply(), proto.StatusBadRequest)

	// The table is bounded, and idle entries make room.
	const maxUploads = 256
	for id := uint64(100); id < 100+maxUploads; id++ {
		if _, ok := c.call(&proto.StagePut{Upload: id, Size: 64 << 10, Data: ten}).(*proto.StagePutReply); !ok {
			t.Fatalf("upload %d refused below the bound", id-100)
		}
	}
	refused(t, "one upload past the bound",
		c.call(&proto.StagePut{Upload: 999, Size: 64 << 10, Data: ten}), proto.StatusUnavailable)
	clock.Advance(time.Minute)
	c.call(&proto.StagePut{Upload: 100, Offset: 10, Size: -1, Data: ten}) // still in use
	clock.Advance(90 * time.Second)
	if _, ok := c.call(&proto.StagePut{Upload: 999, Size: 64 << 10, Data: ten}).(*proto.StagePutReply); !ok {
		t.Fatal("upload refused although every other has been idle for minutes")
	}
	if open.Value() != 2 {
		t.Errorf("%s = %d, want 2: the upload kept in use and the new one", metrics.StageUploads, open.Value())
	}
	if r, ok := c.call(&proto.StagePut{Upload: 100, Offset: 20, Size: -1, Step: proto.PutLast, Name: "kept"}).(*proto.StagePutReply); !ok || r.Ref.Size != 20 || r.Ref.Name != "kept" {
		t.Fatalf("commit of the upload kept in use: %+v", r)
	}

	// The rest die with the connection.
	c.conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for open.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after the connection closed", metrics.StageUploads, open.Value())
		}
		time.Sleep(time.Millisecond)
	}
	waitQuiet(t, store)
}

// TestStageGetReleasesItsLoans: a ranged get lends the reply the store's
// bytes — a pin on a resident blob, a pooled buffer for a spilled one —
// and the loan ends once the reply is written. After a thousand gets of
// each and the eviction of both blobs, the store holds what it stores and
// nothing is pinned.
func TestStageGetReleasesItsLoans(t *testing.T) {
	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "stageget",
		Stage:    stage.Config{Dir: t.TempDir(), DiskSpill: true, MaxBytes: 512 << 10},
		Sites:    []site.SiteSpec{{Name: "sitea", Nodes: site.UniformNodes(1, 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	store := tb.Sites[0].Proxy.Store()
	spilled := store.Put(seededBlob(1, 256<<10))
	resident := store.Put(seededBlob(2, 400<<10)) // pushes the first to disk
	c := dialRaw(t, tb.Sites[0])
	for i := 0; i < 1000; i++ {
		for _, ref := range []stage.FileRef{spilled, resident} {
			off := int64(i*4096) % ref.Size
			reply, ok := c.call(&proto.StageGet{Hash: ref.Hash, Offset: off, Length: 64 << 10}).(*proto.StageGetReply)
			if !ok || reply.Size != ref.Size || reply.Offset != off || len(reply.Data) == 0 {
				t.Fatalf("get %d of %s: %+v", i, ref.Hash[:8], reply)
			}
		}
	}
	store.Put(seededBlob(3, 512<<10)) // evicts the resident one
	if store.Blobs() != 1 {
		t.Fatalf("%d blobs in memory, want only the last", store.Blobs())
	}
	waitQuiet(t, store)
}
