package gate

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"

	"gridproxy/internal/grid"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
)

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

// backendError maps a grid call failure onto the response.
func (g *Gateway) backendError(w http.ResponseWriter, err error) {
	status := httpStatusFor(err)
	if status == http.StatusUnauthorized {
		g.reg.Counter(metrics.GateAuthFailures).Inc()
	}
	writeError(w, status, err.Error())
}

// stateName renders a job state for the API.
func stateName(s proto.JobState) string {
	switch s {
	case proto.JobQueued:
		return "queued"
	case proto.JobRunning:
		return "running"
	case proto.JobDone:
		return "done"
	case proto.JobFailed:
		return "failed"
	case proto.JobCancelled:
		return "cancelled"
	}
	return "unknown"
}

func terminal(s proto.JobState) bool {
	return s == proto.JobDone || s == proto.JobFailed || s == proto.JobCancelled
}

// handleLogin runs the single expensive sign-on of a session: verify
// the password at the TGS, grant a service ticket for this site's
// proxy, and seal both identity and ticket into the session token.
func (g *Gateway) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User     string `json:"user"`
		Password string `json:"password"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil || req.User == "" {
		writeError(w, http.StatusBadRequest, "body must be JSON {\"user\": ..., \"password\": ...}")
		return
	}
	if !g.logins.allow("l:" + req.User) {
		g.reg.Counter(metrics.GateRateLimited).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(g.admit.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "login rate limit exceeded")
		return
	}
	tgt, err := g.tgs.SignOnPassword(req.User, req.Password)
	if err != nil {
		g.reg.Counter(metrics.GateAuthFailures).Inc()
		writeError(w, http.StatusUnauthorized, "invalid credentials")
		return
	}
	claims, err := g.tgs.TGTClaims(tgt)
	if err != nil {
		g.reg.Counter(metrics.GateAuthFailures).Inc()
		writeError(w, http.StatusUnauthorized, "sign-on failed")
		return
	}
	tick, err := g.tgs.GrantTicket(tgt, g.service)
	if err != nil {
		writeError(w, http.StatusBadGateway, "ticket grant failed: "+err.Error())
		return
	}
	token, expiry := g.sessions.mint(req.User, claims.Groups, tick, g.clock().Add(g.tgs.TicketLifetime()))
	g.reg.Counter(metrics.GateLogins).Inc()
	http.SetCookie(w, &http.Cookie{
		Name:     SessionCookie,
		Value:    token,
		Path:     "/",
		Expires:  expiry,
		HttpOnly: true,
		SameSite: http.SameSiteStrictMode,
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"token":        token,
		"user":         req.User,
		"groups":       claims.Groups,
		"expires_unix": expiry.Unix(),
	})
}

// handleLogout revokes the presented session token.
func (g *Gateway) handleLogout(w http.ResponseWriter, r *http.Request) {
	sc, token, ok := sessionFrom(r.Context())
	if !ok {
		writeError(w, http.StatusUnauthorized, "no session")
		return
	}
	g.sessions.revoke(token, sc.Expiry)
	g.reg.Counter(metrics.GateSessionsRevoked).Inc()
	http.SetCookie(w, &http.Cookie{Name: SessionCookie, Value: "", Path: "/", MaxAge: -1})
	w.WriteHeader(http.StatusNoContent)
}

// withClient runs fn with the session user's pooled grid client.
func (g *Gateway) withClient(w http.ResponseWriter, r *http.Request, fn func(sc sessionClaims, c *grid.Client) error) {
	sc, _, ok := sessionFrom(r.Context())
	if !ok {
		writeError(w, http.StatusUnauthorized, "no session")
		return
	}
	client, release, err := g.client(r.Context(), sc)
	if err != nil {
		g.backendError(w, err)
		return
	}
	defer release()
	if err := fn(sc, client); err != nil {
		g.backendError(w, err)
	}
}

func (g *Gateway) handleGrid(w http.ResponseWriter, r *http.Request) {
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		summaries, err := c.Status(r.Context())
		if err != nil {
			return err
		}
		type site struct {
			Site       string  `json:"site"`
			Nodes      int     `json:"nodes"`
			NodesUp    int     `json:"nodes_up"`
			CPUFreePct float64 `json:"cpu_free_pct"`
			RAMFreeMB  int64   `json:"ram_free_mb"`
			Load1      float64 `json:"load1"`
		}
		out := make([]site, len(summaries))
		for i, s := range summaries {
			out[i] = site{
				Site: s.Site, Nodes: s.Nodes, NodesUp: s.NodesUp,
				CPUFreePct: s.CPUFreePct, RAMFreeMB: s.RAMFreeMB, Load1: s.Load1,
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"sites": out})
		return nil
	})
}

func (g *Gateway) handleMembers(w http.ResponseWriter, r *http.Request) {
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		members, err := c.Members(r.Context())
		if err != nil {
			return err
		}
		type member struct {
			Site   string `json:"site"`
			Addr   string `json:"addr"`
			State  string `json:"state"`
			Tunnel bool   `json:"tunnel"`
		}
		out := make([]member, len(members))
		for i, m := range members {
			out[i] = member{Site: m.Site, Addr: m.Addr, State: m.State, Tunnel: m.Tunnel}
		}
		writeJSON(w, http.StatusOK, map[string]any{"members": out})
		return nil
	})
}

func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		jobs, err := c.Jobs(r.Context())
		if err != nil {
			return err
		}
		type job struct {
			ID     string `json:"id"`
			State  string `json:"state"`
			Detail string `json:"detail"`
		}
		out := make([]job, len(jobs))
		for i, j := range jobs {
			out[i] = job{ID: j.ID, State: j.State, Detail: j.Detail}
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
		return nil
	})
}

// jobRequest is the submission body.
type jobRequest struct {
	Program string   `json:"program"`
	Args    []string `json:"args"`
	Procs   int      `json:"procs"`
	StageIn []struct {
		Name string `json:"name"`
		Hash string `json:"hash"`
		Size int64  `json:"size"`
	} `json:"stage_in"`
	StageOut []string `json:"stage_out"`
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sc, _, ok := sessionFrom(r.Context())
	if !ok {
		writeError(w, http.StatusUnauthorized, "no session")
		return
	}
	var req jobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil || req.Program == "" {
		writeError(w, http.StatusBadRequest, "body must be JSON {\"program\": ..., \"procs\": ...}")
		return
	}
	client, release, err := g.client(r.Context(), sc)
	if err != nil {
		g.backendError(w, err)
		return
	}
	defer release()
	reserved, charged := g.quota.tryReserve(sc.User)
	if !reserved {
		// Before refusing, re-check the charged jobs: some may have
		// finished since we last looked (state queries happen outside
		// the quota lock).
		for _, id := range charged {
			if state, _, err := client.JobState(r.Context(), id); err == nil && terminal(state) {
				g.quota.observeTerminal(sc.User, id)
			}
		}
		reserved, _ = g.quota.tryReserve(sc.User)
	}
	if !reserved {
		g.reg.Counter(metrics.GateQuotaRefused).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(g.admit.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "concurrent job quota exhausted")
		return
	}
	spec := grid.JobSpec{
		Program:  req.Program,
		Args:     req.Args,
		Procs:    req.Procs,
		StageOut: req.StageOut,
	}
	for _, ref := range req.StageIn {
		spec.StageIn = append(spec.StageIn, grid.FileRef{Name: ref.Name, Hash: ref.Hash, Size: ref.Size})
	}
	jobID, err := client.SubmitJob(r.Context(), spec)
	if err != nil {
		g.quota.abort(sc.User)
		g.backendError(w, err)
		return
	}
	g.quota.commit(sc.User, jobID)
	writeJSON(w, http.StatusCreated, map[string]any{"job_id": jobID})
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		state, detail, err := c.JobState(r.Context(), jobID)
		if err != nil {
			return err
		}
		if terminal(state) {
			g.quota.observeTerminal(sc.User, jobID)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id": jobID, "state": stateName(state), "detail": detail,
		})
		return nil
	})
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		if err := c.Cancel(r.Context(), jobID); err != nil {
			return err
		}
		g.quota.observeTerminal(sc.User, jobID)
		writeJSON(w, http.StatusOK, map[string]any{"id": jobID, "state": "cancelled"})
		return nil
	})
}

func (g *Gateway) handleOutputs(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		refs, err := c.JobOutputs(r.Context(), jobID)
		if err != nil {
			return err
		}
		type ref struct {
			Name string `json:"name"`
			Hash string `json:"hash"`
			Size int64  `json:"size"`
		}
		out := make([]ref, len(refs))
		for i, f := range refs {
			out[i] = ref{Name: f.Name, Hash: f.Hash, Size: f.Size}
		}
		writeJSON(w, http.StatusOK, map[string]any{"job_id": jobID, "outputs": out})
		return nil
	})
}

// bodyReader remembers the error that ended a request body, so a failed
// upload can be blamed on the side that failed.
type bodyReader struct {
	r   io.Reader
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
}

// handleFilePut streams the request body to the proxy a chunk at a time
// (grid.Client.PutFrom): the gateway holds two chunks of an upload, never
// the body, so MaxBodyBytes is what an operator allows, not what the
// gateway's memory can take.
func (g *Gateway) handleFilePut(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "?name= is required")
		return
	}
	if r.ContentLength > g.maxBody {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds size cap")
		return
	}
	if deadline, ok := r.Context().Deadline(); ok {
		// A body that stops arriving must not hold the slot past the
		// route's deadline. A writer without a connection cannot do this.
		_ = http.NewResponseController(w).SetReadDeadline(deadline)
	}
	body := &bodyReader{r: http.MaxBytesReader(w, r.Body, g.maxBody)}
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		ref, err := c.PutFrom(r.Context(), name, body, r.ContentLength)
		var tooBig *http.MaxBytesError
		switch {
		case err == nil:
			writeJSON(w, http.StatusCreated, map[string]any{
				"name": ref.Name, "hash": ref.Hash, "size": ref.Size,
			})
		case body.err == nil:
			return err
		case errors.As(body.err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds size cap")
		case r.Context().Err() != nil || errors.Is(body.err, os.ErrDeadlineExceeded):
			// Deadline expiry or client disconnect mid-body (slow-loris,
			// dropped uplink) — a timeout, not a size violation.
			g.reg.Counter(metrics.GateTimeouts).Inc()
			writeError(w, http.StatusRequestTimeout, "body read timed out")
		default:
			writeError(w, http.StatusBadRequest, "body read failed: "+body.err.Error())
		}
		return nil
	})
}

// download is the destination of a blob read back through the gateway:
// the response, told its length before its first byte.
type download struct {
	w         http.ResponseWriter
	announced bool
}

func (d *download) SetSize(size int64) {
	d.announced = true
	h := d.w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Disposition", "attachment")
	h.Set("Content-Length", strconv.FormatInt(size, 10))
}

func (d *download) Write(p []byte) (int, error) { return d.w.Write(p) }

// handleFileGet streams a blob out of the proxy's store a range at a time
// (grid.Client.GetTo). The length is announced from the first range, so a
// client can tell a whole blob from a cut one: when a later range fails —
// the blob was evicted in between, the proxy went away — the connection
// is torn down and the client reads an unexpected EOF, never a 200 that
// ends short.
func (g *Gateway) handleFileGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		dst := &download{w: w}
		n, err := c.GetTo(r.Context(), hash, dst)
		if err != nil && dst.announced {
			g.reg.Counter(metrics.GateErrors).Inc()
			g.log.Warn("download cut short", "hash", hash, "sent", n, "err", err)
			panic(http.ErrAbortHandler)
		}
		return err
	})
}

func (g *Gateway) handleFileStat(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	g.withClient(w, r, func(sc sessionClaims, c *grid.Client) error {
		size, present, err := c.Stat(r.Context(), hash)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"hash": hash, "present": present, "size": size,
		})
		return nil
	})
}
