package gate_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/gate"
	"gridproxy/internal/metrics"
	"gridproxy/internal/site"
	"gridproxy/internal/stage"
	"gridproxy/internal/ticket"
	"gridproxy/internal/wire"
)

func seededBlob(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

type putReply struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	Size int64  `json:"size"`
}

// post runs one upload through the gateway's pipeline. size < 0 leaves
// the request without a Content-Length.
func (f *fixture) post(name, token string, body io.Reader, size int64) (int, putReply) {
	req := httptest.NewRequest(http.MethodPost, "/api/files?name="+name, body)
	req.ContentLength = size
	req.Header.Set("Authorization", "Bearer "+token)
	rr := httptest.NewRecorder()
	f.gw.ServeHTTP(rr, req)
	var reply putReply
	_ = json.Unmarshal(rr.Body.Bytes(), &reply)
	return rr.Code, reply
}

// serve puts the gateway behind a real HTTP server.
func (f *fixture) serve(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(f.gw)
	t.Cleanup(srv.Close)
	return srv
}

func (f *fixture) uploadsOpen() int64 { return f.reg.Gauge(metrics.StageUploads).Value() }

// TestFileLargerThanOneFrame: with the body cap raised, a file no control
// frame could carry goes up and comes down through the gateway, and the
// download says how long it is.
func TestFileLargerThanOneFrame(t *testing.T) {
	f := newFixture(t, func(cfg *gate.Config) { cfg.MaxBodyBytes = 32 << 20 })
	token := f.login(t, "alice", "secret")
	blob := seededBlob(51, 20<<20)
	if len(blob) <= wire.MaxPayload {
		t.Fatal("the blob must not fit a frame")
	}
	code, ref := f.post("big.bin", token, bytes.NewReader(blob), int64(len(blob)))
	if code != http.StatusCreated || ref.Hash != hashOf(blob) || ref.Size != int64(len(blob)) {
		t.Fatalf("put = %d %+v, want %s", code, ref, hashOf(blob))
	}
	rr := f.do(http.MethodGet, "/api/files/"+ref.Hash, token, nil)
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), blob) {
		t.Fatalf("get = %d, %d bytes, exact %v", rr.Code, rr.Body.Len(), bytes.Equal(rr.Body.Bytes(), blob))
	}
	if got := rr.Header().Get("Content-Length"); got != strconv.Itoa(len(blob)) {
		t.Errorf("Content-Length = %q, want %d", got, len(blob))
	}
}

// TestOversizedUploadRefusedUnread: a Content-Length past the cap is a
// 413 before a byte of the body is read; a body without a length is cut
// at the cap.
func TestOversizedUploadRefusedUnread(t *testing.T) {
	f := newFixture(t, func(cfg *gate.Config) { cfg.MaxBodyBytes = 1 << 20 })
	token := f.login(t, "alice", "secret")
	code, _ := f.post("big", token, failingReader{t}, 1<<20+1)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared 1 MiB + 1 = %d, want 413", code)
	}
	code, _ = f.post("big", token, struct{ io.Reader }{bytes.NewReader(make([]byte, 1<<20+1))}, -1)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("undeclared 1 MiB + 1 = %d, want 413", code)
	}
	if code, _ := f.post("fits", token, bytes.NewReader(make([]byte, 1<<20)), 1<<20); code != http.StatusCreated {
		t.Errorf("1 MiB = %d, want 201", code)
	}
	// The body without a length got one chunk in before it hit the cap;
	// the proxy is told to drop it without being waited for.
	waitFor(t, 10*time.Second, "the cut upload to be dropped", func() bool { return f.uploadsOpen() == 0 })
}

type failingReader struct{ t *testing.T }

func (r failingReader) Read([]byte) (int, error) {
	r.t.Error("the body of a refused upload was read")
	return 0, io.EOF
}

// TestConcurrentUploadsShareOneClient: two uploads of one user travel
// over the user's one pooled connection at the same time, a chunk at a
// time each, and a query issued while both are part-way through is
// answered without waiting for either.
func TestConcurrentUploadsShareOneClient(t *testing.T) {
	f := newFixture(t, nil)
	token := f.login(t, "alice", "secret")
	blobs := [][]byte{seededBlob(61, 4<<20), seededBlob(62, 4<<20)}
	type result struct {
		code int
		ref  putReply
	}
	var (
		bodies  []*failure.HeldBody
		results []chan result
	)
	for i, blob := range blobs {
		body := failure.HoldBody(blob, 2<<20+17)
		done := make(chan result, 1)
		// One upload announces its length, the other does not.
		size := int64(len(blob))
		if i == 1 {
			size = -1
		}
		go func(i int) {
			code, ref := f.post(fmt.Sprintf("blob%d", i), token, body, size)
			done <- result{code, ref}
		}(i)
		bodies, results = append(bodies, body), append(results, done)
	}
	for _, body := range bodies {
		<-body.Parked()
	}
	waitFor(t, 10*time.Second, "both uploads open at the proxy", func() bool { return f.uploadsOpen() == 2 })

	answered := make(chan int, 1)
	go func() { answered <- f.do(http.MethodGet, "/api/grid", token, nil).Code }()
	select {
	case code := <-answered:
		if code != http.StatusOK {
			t.Errorf("query between chunks = %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query waited for the uploads sharing its connection")
	}

	for i, body := range bodies {
		body.Release()
		got := <-results[i]
		if got.code != http.StatusCreated || got.ref.Hash != hashOf(blobs[i]) || got.ref.Size != int64(len(blobs[i])) {
			t.Errorf("upload %d = %d %+v, want %s", i, got.code, got.ref, hashOf(blobs[i]))
		}
	}
	if dials := f.reg.Counter(metrics.GatePoolDials).Value(); dials != 1 {
		t.Errorf("pool dials = %d, want 1", dials)
	}
	if f.uploadsOpen() != 0 {
		t.Errorf("%d uploads left open", f.uploadsOpen())
	}
}

// TestAbandonedUploadLeavesNothing: an upload whose body stops arriving
// is ended by the route's deadline with a 408, one whose client goes away
// ends with the connection; either way the proxy is told, and neither the
// store nor the connection's upload table keeps anything of it.
func TestAbandonedUploadLeavesNothing(t *testing.T) {
	f := newFixture(t, func(cfg *gate.Config) { cfg.Timeouts.Data = 2 * time.Second })
	srv := f.serve(t)
	token := f.login(t, "alice", "secret")
	store := f.tb.Sites[0].Proxy.Store()
	blob := seededBlob(71, 8<<20)

	// upload starts a drip-fed upload and freezes it once its first chunk
	// has reached the proxy. The caller heals the body when it is done:
	// the HTTP client does not return while its body is stuck in a Read.
	type dripFed struct {
		failure.SlowLoris
		frozen chan struct{}
	}
	thaw := func(d *dripFed) {
		<-d.frozen
		d.Heal()
	}
	upload := func(ctx context.Context, loris *dripFed) (*http.Response, error) {
		loris.Chunk, loris.Delay = 32<<10, 2*time.Millisecond
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/api/files?name=stalled", loris.Body(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = int64(len(blob))
		req.Header.Set("Authorization", "Bearer "+token)
		// A count that only grows: the upload may be over before a poll
		// of the open uploads would see it.
		arrived := f.reg.Counter(metrics.StageHashedBytes)
		base := arrived.Value()
		go func() {
			for arrived.Value() == base {
				time.Sleep(time.Millisecond)
			}
			loris.Stall()
			close(loris.frozen)
		}()
		return srv.Client().Do(req)
	}

	timeouts := f.reg.Counter(metrics.GateTimeouts).Value()
	stalled := &dripFed{frozen: make(chan struct{})}
	resp, err := upload(context.Background(), stalled)
	thaw(stalled)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Errorf("stalled upload = %d, want 408", resp.StatusCode)
	}
	if got := f.reg.Counter(metrics.GateTimeouts).Value() - timeouts; got != 1 {
		t.Errorf("gate.timeouts moved by %d, want 1", got)
	}
	waitFor(t, 10*time.Second, "the stalled upload to be dropped", func() bool { return f.uploadsOpen() == 0 })

	ctx, hangUp := context.WithCancel(context.Background())
	cut := &dripFed{frozen: make(chan struct{})}
	gone := make(chan error, 1)
	go func() {
		resp, err := upload(ctx, cut)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	<-cut.frozen
	if f.uploadsOpen() != 1 {
		t.Fatalf("%d uploads open with one frozen part-way", f.uploadsOpen())
	}
	hangUp()
	thaw(cut)
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Errorf("client that hung up got %v", err)
	}
	waitFor(t, 10*time.Second, "the hung-up upload to be dropped", func() bool { return f.uploadsOpen() == 0 })

	if store.Blobs() != 0 || store.Has(hashOf(blob)) {
		t.Errorf("store holds %d blobs after two uploads that never finished", store.Blobs())
	}
	waitFor(t, 10*time.Second, "the dropped uploads' buffers to be given back", func() bool {
		bytes, pins := store.Outstanding()
		return bytes == 0 && pins == 0
	})
}

// TestUploadSurvivesSessionRenewal: the proxy-side session of the pooled
// connection lapses between two chunks of an upload. The chunk that finds
// it lapsed renews it with the user's fresher ticket, is sent again, and
// the upload completes on the same connection with the right hash.
func TestUploadSurvivesSessionRenewal(t *testing.T) {
	f := newFixture(t, nil)
	token := f.login(t, "alice", "secret")
	// The pooled connection's proxy-side session is as old as this ticket.
	if rr := f.do(http.MethodGet, "/api/grid", token, nil); rr.Code != http.StatusOK {
		t.Fatalf("first request = %d: %s", rr.Code, rr.Body)
	}
	f.clock.Advance(ticket.DefaultTicketLifetime - time.Minute)
	fresh := f.login(t, "alice", "secret")

	blob := seededBlob(81, 3<<20)
	body := failure.HoldBody(blob, 3<<19)
	type result struct {
		code int
		ref  putReply
	}
	done := make(chan result, 1)
	go func() {
		code, ref := f.post("renewed.bin", fresh, body, int64(len(blob)))
		done <- result{code, ref}
	}()
	<-body.Parked()
	waitFor(t, 10*time.Second, "the first chunk to reach the proxy", func() bool { return f.uploadsOpen() == 1 })
	f.clock.Advance(2 * time.Minute) // the old ticket's session is over, the fresh one's is not
	body.Release()
	got := <-done
	if got.code != http.StatusCreated || got.ref.Hash != hashOf(blob) {
		t.Fatalf("upload across the renewal = %d %+v, want %s", got.code, got.ref, hashOf(blob))
	}
	if n := f.reg.Counter(metrics.GateRenewals).Value(); n != 1 {
		t.Errorf("gate.renewals = %d, want 1", n)
	}
	if dials := f.reg.Counter(metrics.GatePoolDials).Value(); dials != 1 {
		t.Errorf("pool dials = %d, want 1 (the upload must stay on its connection)", dials)
	}
	if f.uploadsOpen() != 0 {
		t.Errorf("%d uploads left open", f.uploadsOpen())
	}
}

// TestDownloadNeverEndsShort: a blob evicted while a client is part-way
// through downloading it cuts the connection. The client was told the
// length up front and reads an error, not a 200 with fewer bytes.
func TestDownloadNeverEndsShort(t *testing.T) {
	f := newFixtureOn(t,
		func(cfg *site.TestbedConfig) { cfg.Stage = stage.Config{MaxBytes: 24 << 20} },
		func(cfg *gate.Config) { cfg.MaxBodyBytes = 32 << 20 })
	srv := f.serve(t)
	token := f.login(t, "alice", "secret")
	store := f.tb.Sites[0].Proxy.Store()
	blob := seededBlob(91, 16<<20)
	ref := store.Put(blob)

	// A small receive buffer, so that the gateway's writes stall a few
	// MiB in while the client is not reading.
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				_ = conn.(*net.TCPConn).SetReadBuffer(64 << 10)
			}
			return conn, err
		},
	}}
	defer client.CloseIdleConnections()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/files/"+ref.Hash, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(blob)) {
		t.Fatalf("download = %d, Content-Length %d, want 200 and %d", resp.StatusCode, resp.ContentLength, len(blob))
	}
	head := make([]byte, 1<<20)
	if _, err := io.ReadFull(resp.Body, head); err != nil || !bytes.Equal(head, blob[:1<<20]) {
		t.Fatalf("first MiB: %v", err)
	}
	// The gateway is now blocked writing; what it has not asked for yet
	// it will not get.
	store.Put(seededBlob(92, 12<<20))
	if store.Has(ref.Hash) {
		t.Fatal("the blob was not evicted")
	}
	rest, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("download of an evicted blob ended cleanly after %d of %d bytes", len(head)+len(rest), len(blob))
	}
	if got := len(head) + len(rest); got >= len(blob) {
		t.Fatalf("read %d bytes of a blob evicted mid-download, error %v", got, err)
	}
	if !bytes.Equal(rest, blob[1<<20:1<<20+len(rest)]) {
		t.Error("the bytes that did arrive are not the blob's")
	}
	// The same client sees a clean 404 next.
	resp2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("download of a blob that is gone = %d, want 404", resp2.StatusCode)
	}
}

// putGet8MiB uploads an 8 MiB blob through a live gateway and reads it
// back into into, which must hold it.
func putGet8MiB(tb testing.TB, srv *httptest.Server, token string, blob, into []byte) {
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/files?name=budget", bytes.NewReader(blob))
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := srv.Client().Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	var ref putReply
	err = json.NewDecoder(resp.Body).Decode(&ref)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		tb.Fatalf("put = %d, %v", resp.StatusCode, err)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/api/files/"+ref.Hash, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err = srv.Client().Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != int64(len(into)) {
		tb.Fatalf("get: Content-Length %d, want %d", resp.ContentLength, len(into))
	}
	if _, err := io.ReadFull(resp.Body, into); err != nil {
		tb.Fatal(err)
	}
}

// TestGatePutGetAllocBudget bounds what an 8 MiB file costs in allocated
// bytes, HTTP server, gateway, client connection and proxy together: the
// blob itself at the store, a frame per chunk on each receiving side, and
// small change. (When every hop held the whole blob, and regrew its way
// there, this read 15 blobs.) The race detector allocates on its own
// account, so the budget is checked without it.
func TestGatePutGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	f := newFixture(t, nil)
	srv := f.serve(t)
	token := f.login(t, "alice", "secret")
	blob := seededBlob(95, 8<<20)
	into := make([]byte, len(blob))
	putGet8MiB(t, srv, token, seededBlob(96, 8<<20), into) // connections, pools, lanes

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	putGet8MiB(t, srv, token, blob, into)
	runtime.ReadMemStats(&after)
	if !bytes.Equal(into, blob) {
		t.Fatal("read back something else")
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("8 MiB put + get allocated %.1f MiB (%.2f blobs)", float64(allocated)/(1<<20), float64(allocated)/float64(len(blob)))
	if allocated > 4*uint64(len(blob)) {
		t.Errorf("8 MiB put + get allocated %d bytes, more than 4 blobs", allocated)
	}
}

func BenchmarkGatePutGet8MiB(b *testing.B) {
	// The fixture's clock never refills a rate bucket, so the buckets are
	// made deep enough for any -benchtime, as gridmark does.
	f := newFixture(b, func(cfg *gate.Config) {
		cfg.Limits.UserRate, cfg.Limits.UserBurst = 1e9, 1e9
		cfg.Limits.GroupRate, cfg.Limits.GroupBurst = 1e9, 1e9
	})
	srv := f.serve(b)
	token := f.login(b, "alice", "secret")
	blob := seededBlob(97, 8<<20)
	into := make([]byte, len(blob))
	b.SetBytes(2 * int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob[0] = byte(i) // a new blob each time: nothing dedupes
		putGet8MiB(b, srv, token, blob, into)
	}
}
