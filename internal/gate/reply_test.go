package gate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"testing"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/node"
	"gridproxy/internal/proto"
)

// encoded is what json.Encoder writes for v.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// reencoded is what json.Encoder writes for the value body holds, with
// its members in body's order.
func reencoded(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	type open struct {
		object bool
		n      int // tokens inside so far
	}
	var out []byte
	var stack []open
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return append(out, '\n')
		}
		if err != nil {
			t.Fatalf("%v in %s", err, body)
		}
		if tok == json.Delim('}') || tok == json.Delim(']') {
			out = append(out, byte(tok.(json.Delim)))
			stack = stack[:len(stack)-1]
			continue
		}
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			switch {
			case top.n == 0:
			case top.object && top.n%2 == 1:
				out = append(out, ':')
			default:
				out = append(out, ',')
			}
			top.n++
		}
		switch v := tok.(type) {
		case json.Delim:
			out = append(out, byte(v))
			stack = append(stack, open{object: v == '{'})
		case json.Number:
			out = append(out, v...)
		case nil:
			out = append(out, "null"...)
		default:
			b := encoded(t, v)
			out = append(out, b[:len(b)-1]...)
		}
	}
}

// TestRepliesAreSized: every JSON route answers with a Content-Length,
// not a chunked body, and with the bytes json.Encoder writes for its
// answer. The listing's page holds a failed job whose detail needs every
// kind of escape, and a cursor to the next page; it is checked against the
// encoding of the proxy's own records.
func TestRepliesAreSized(t *testing.T) {
	f := newFixtureOn(t, threeAtSiteb, nil)
	const detail = "a \"quoted\" <tag> & \x01\x1f\t\b ünïcödé \u2028\u2029 \xff end"
	f.tb.RegisterProgram("quick", func(ctx context.Context, env node.Env) error { return nil })
	f.tb.RegisterProgram("fails", func(ctx context.Context, env node.Env) error { return errors.New(detail) })
	c := &apiClient{srv: f.serve(t), token: f.login(t, "alice", "secret")}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	origin := f.tb.Sites[0].Proxy
	for i := 0; i < core.JobPage; i++ {
		if _, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "quick", Procs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var put, submitted map[string]any
	if err := json.Unmarshal(c.do(t, http.MethodPost, "/api/files?name=f", []byte("bytes"), http.StatusCreated), &put); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(c.do(t, http.MethodPost, "/api/jobs", []byte(`{"program":"fails","procs":1}`), http.StatusCreated), &submitted); err != nil {
		t.Fatal(err)
	}
	failed := submitted["job_id"].(string)
	waitFor(t, 30*time.Second, "the job to fail", func() bool {
		state, _, err := origin.JobStatus(failed)
		return err == nil && state == proto.JobFailed
	})
	first, next := origin.Jobs("alice", 0)
	if len(first) != core.JobPage || next == 0 || first[0].JobID != failed || !bytes.Contains([]byte(first[0].Detail), []byte(detail)) {
		t.Fatalf("the newest page holds %d jobs, cursor %d, the newest %+v", len(first), next, first[0])
	}
	// page is what the listing encoded with encoding/json: the job records
	// and the cursor as the API names them.
	page := func(before uint64) func() []byte {
		return func() []byte {
			type job struct {
				ID     string `json:"id"`
				State  string `json:"state"`
				Detail string `json:"detail"`
			}
			v := struct {
				Jobs []job  `json:"jobs"`
				Next string `json:"next,omitempty"`
			}{Jobs: []job{}}
			records, next := origin.Jobs("alice", before)
			for _, r := range records {
				v.Jobs = append(v.Jobs, job{r.JobID, r.State, r.Detail})
			}
			if next != 0 {
				v.Next = strconv.FormatUint(next, 10)
			}
			return encoded(t, v)
		}
	}

	for _, tc := range []struct {
		method, path string
		body         string
		status       int
		// want encodes the answer; nil re-encodes what the body holds, which
		// cannot tell an escaped invalid byte from U+FFFD.
		want func() []byte
	}{
		{http.MethodGet, "/api/grid", "", http.StatusOK, nil},
		{http.MethodGet, "/api/members", "", http.StatusOK, nil},
		{http.MethodGet, "/api/resources?site=siteb&kind=node", "", http.StatusOK, nil},
		{http.MethodGet, "/api/jobs", "", http.StatusOK, page(0)},
		{http.MethodGet, "/api/jobs?before=" + strconv.FormatUint(next, 10), "", http.StatusOK, page(next)},
		{http.MethodGet, "/api/jobs?before=x", "", http.StatusBadRequest, nil},
		{http.MethodPost, "/api/jobs", `{"program":"quick","procs":2}`, http.StatusCreated, nil},
		{http.MethodPost, "/api/jobs", `{}`, http.StatusBadRequest, nil},
		{http.MethodGet, "/api/jobs/" + failed, "", http.StatusOK, func() []byte {
			state, detail, _ := origin.JobStatus(failed)
			return encoded(t, map[string]any{"id": failed, "state": state.Name(), "detail": detail})
		}},
		{http.MethodGet, "/api/jobs/" + failed + "/outputs", "", http.StatusOK, nil},
		{http.MethodDelete, "/api/jobs/" + failed, "", http.StatusBadRequest, nil},
		{http.MethodGet, "/api/jobs/nosuchjob", "", http.StatusNotFound, nil},
		{http.MethodPost, "/api/files?name=g", "more bytes", http.StatusCreated, nil},
		{http.MethodGet, "/api/files/" + put["hash"].(string) + "/stat", "", http.StatusOK, nil},
		{http.MethodPost, "/api/login", `{"user":"alice","password":"secret"}`, http.StatusOK, nil},
		{http.MethodPost, "/api/login", `{"user":"alice","password":"wrong"}`, http.StatusUnauthorized, nil},
	} {
		name := tc.method + " " + tc.path
		req, err := http.NewRequest(tc.method, c.srv.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+c.token)
		resp, err := c.srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status {
			t.Errorf("%s = %d, %v: %s", name, resp.StatusCode, err, body)
			continue
		}
		if resp.Header.Get("Content-Length") != fmt.Sprint(len(body)) || slices.Contains(resp.TransferEncoding, "chunked") {
			t.Errorf("%s: Content-Length %q, transfer encoding %q, for %d bytes", name, resp.Header.Get("Content-Length"), resp.TransferEncoding, len(body))
		}
		want := tc.want
		if want == nil {
			want = func() []byte { return reencoded(t, body) }
		}
		if w := want(); !bytes.Equal(body, w) {
			t.Errorf("%s:\n got %q\nwant %q", name, body, w)
		}
	}
}
