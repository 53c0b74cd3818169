package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// pollEvery is the fixed job-status poll period. grid.Client.WaitJob's
// 5 ms → 200 ms doubling would quantise a 6 ms job, so the harness never
// times through it.
const pollEvery = time.Millisecond

// fileRef is a blob as the gateway names it.
type fileRef struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	Size int64  `json:"size"`
}

// jobRequest is the body of POST /api/jobs.
type jobRequest struct {
	Program string    `json:"program"`
	Args    []string  `json:"args"`
	Procs   int       `json:"procs"`
	StageIn []fileRef `json:"stage_in,omitempty"`
}

// session is one logged-in client: one HTTP connection, one bearer
// token, and the latencies it observed. It is used by one goroutine.
type session struct {
	user  string
	base  string
	http  *http.Client
	token string

	queryMS  []float64 // every GET that is a query (not a download)
	requests int       // HTTP requests issued
}

func newSession(base, user string) *session {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &session{user: user, base: base, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (s *session) close() { s.http.CloseIdleConnections() }

// do issues one request and returns the whole response body. Any status
// other than want is an error.
func (s *session) do(ctx context.Context, method, path string, body io.Reader, size int64, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.ContentLength = size
	}
	if s.token != "" {
		req.Header.Set("Authorization", "Bearer "+s.token)
	}
	s.requests++
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A download of known length is read into a buffer of that size: the
	// harness should not pay ReadAll's regrowth copies on 8 MiB bodies.
	var payload []byte
	if resp.ContentLength > 0 {
		payload = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, payload)
	} else {
		payload, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want,
			strings.TrimSpace(string(payload[:min(len(payload), 200)])))
	}
	return payload, nil
}

// query is a timed GET whose latency counts as a query.
func (s *session) query(ctx context.Context, path string, into any) error {
	start := time.Now()
	payload, err := s.do(ctx, http.MethodGet, path, nil, 0, http.StatusOK)
	if err != nil {
		return err
	}
	s.queryMS = append(s.queryMS, ms(time.Since(start)))
	return json.Unmarshal(payload, into)
}

func (s *session) login(ctx context.Context, password string) error {
	body, _ := json.Marshal(map[string]string{"user": s.user, "password": password})
	payload, err := s.do(ctx, http.MethodPost, "/api/login", bytes.NewReader(body), int64(len(body)), http.StatusOK)
	if err != nil {
		return err
	}
	var reply struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(payload, &reply); err != nil || reply.Token == "" {
		return fmt.Errorf("login reply carries no token: %s", payload)
	}
	s.token = reply.Token
	return nil
}

// gridView is GET /api/grid; it must list both sites.
func (s *session) gridView(ctx context.Context) error {
	var reply struct {
		Sites []struct {
			Site string `json:"site"`
		} `json:"sites"`
	}
	if err := s.query(ctx, "/api/grid", &reply); err != nil {
		return err
	}
	if len(reply.Sites) != 2 {
		return fmt.Errorf("GET /api/grid lists %d sites, want 2", len(reply.Sites))
	}
	return nil
}

// jobsList is GET /api/jobs; it returns how many jobs the proxy tracks.
// The listing grows with every job run (the proxy keeps records for 15
// minutes), so it is checked and counted without decoding it: the harness
// should not spend more CPU reading the answer than the grid did writing it.
func (s *session) jobsList(ctx context.Context) (int, error) {
	start := time.Now()
	payload, err := s.do(ctx, http.MethodGet, "/api/jobs", nil, 0, http.StatusOK)
	if err != nil {
		return 0, err
	}
	s.queryMS = append(s.queryMS, ms(time.Since(start)))
	if !bytes.HasPrefix(payload, []byte(`{"jobs":[`)) {
		return 0, fmt.Errorf("GET /api/jobs: unexpected body %.40q", payload)
	}
	return bytes.Count(payload, []byte(`"id":`)), nil
}

func (s *session) putFile(ctx context.Context, name string, data []byte, wantHash string) (fileRef, error) {
	payload, err := s.do(ctx, http.MethodPost, "/api/files?name="+name, bytes.NewReader(data), int64(len(data)), http.StatusCreated)
	if err != nil {
		return fileRef{}, err
	}
	var ref fileRef
	if err := json.Unmarshal(payload, &ref); err != nil {
		return fileRef{}, err
	}
	if ref.Hash != wantHash || ref.Size != int64(len(data)) {
		return fileRef{}, fmt.Errorf("put %s: gateway stored %s (%d bytes), harness hashed %s (%d bytes)",
			name, ref.Hash, ref.Size, wantHash, len(data))
	}
	return ref, nil
}

func (s *session) getFile(ctx context.Context, hash string) ([]byte, error) {
	return s.do(ctx, http.MethodGet, "/api/files/"+hash, nil, 0, http.StatusOK)
}

// submit posts a job and returns its id once the gateway has admitted it
// and the ranks run on both sites.
func (s *session) submit(ctx context.Context, job jobRequest) (string, error) {
	body, _ := json.Marshal(job)
	payload, err := s.do(ctx, http.MethodPost, "/api/jobs", bytes.NewReader(body), int64(len(body)), http.StatusCreated)
	if err != nil {
		return "", err
	}
	var reply struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(payload, &reply); err != nil || reply.JobID == "" {
		return "", fmt.Errorf("submit reply carries no job id: %s", payload)
	}
	return reply.JobID, nil
}

// waitDone polls the job every pollEvery until it is done. It sleeps
// before the first poll: a no-op job ends a fraction of a millisecond
// after submit returns, so an immediate poll would find it done or not by
// a coin flip, and the median turnaround would jump between the two cases.
func (s *session) waitDone(ctx context.Context, id string) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
		var reply struct {
			State  string `json:"state"`
			Detail string `json:"detail"`
		}
		if err := s.query(ctx, "/api/jobs/"+id, &reply); err != nil {
			return err
		}
		switch reply.State {
		case "done":
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("job %s %s: %s", id, reply.State, reply.Detail)
		}
	}
}

// outputs lists a finished job's outputs by name.
func (s *session) outputs(ctx context.Context, id string) (map[string]fileRef, error) {
	var reply struct {
		Outputs []fileRef `json:"outputs"`
	}
	if err := s.query(ctx, "/api/jobs/"+id+"/outputs", &reply); err != nil {
		return nil, err
	}
	byName := make(map[string]fileRef, len(reply.Outputs))
	for _, ref := range reply.Outputs {
		byName[ref.Name] = ref
	}
	return byName, nil
}
