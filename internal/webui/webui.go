// Package webui implements the paper's "Web Access Interface" layer: an
// HTTP view onto a site proxy, serving both a human-readable overview page
// and a JSON API ("the user will have a Web page at his/her disposal,
// facilitating access to information").
package webui

import (
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/monitor"
)

// Handler serves the web interface of one proxy.
type Handler struct {
	proxy *core.Proxy
	mux   *http.ServeMux
	tmpl  *template.Template
}

// statusTimeout bounds how long an HTTP request may wait on peer sites.
const statusTimeout = 10 * time.Second

// New builds the web interface for a proxy.
func New(p *core.Proxy) *Handler {
	h := &Handler{
		proxy: p,
		mux:   http.NewServeMux(),
		tmpl:  template.Must(template.New("index").Parse(indexHTML)),
	}
	h.mux.HandleFunc("GET /", h.index)
	h.mux.HandleFunc("GET /api/status", h.apiStatus)
	h.mux.HandleFunc("GET /api/grid", h.apiGrid)
	h.mux.HandleFunc("GET /api/jobs", h.apiJobs)
	h.mux.HandleFunc("GET /api/resources", h.apiResources)
	h.mux.HandleFunc("GET /api/peers", h.apiPeers)
	h.mux.HandleFunc("GET /healthz", h.healthz)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (h *Handler) statusSummaries(r *http.Request) ([]monitor.SiteSummary, error) {
	ctx, cancel := context.WithTimeout(r.Context(), statusTimeout)
	defer cancel()
	var sites []string
	if s := r.URL.Query().Get("site"); s != "" {
		sites = []string{s}
	}
	return h.proxy.Status(ctx, sites)
}

func (h *Handler) apiStatus(w http.ResponseWriter, r *http.Request) {
	summaries, err := h.statusSummaries(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, summaries)
}

// apiGrid totals the summaries an unfiltered /api/status serves.
func (h *Handler) apiGrid(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), statusTimeout)
	defer cancel()
	summaries, err := h.proxy.Status(ctx, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, monitor.Compile(summaries))
}

// apiJobs lists the newest page of every owner's jobs.
func (h *Handler) apiJobs(w http.ResponseWriter, r *http.Request) {
	jobs, _ := h.proxy.Jobs("", 0)
	writeJSON(w, jobs)
}

// apiResources lists one site's resources (?site=, default this one), as
// that site reports them.
func (h *Handler) apiResources(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), statusTimeout)
	defer cancel()
	q := r.URL.Query()
	resources, err := h.proxy.Resources(ctx, q.Get("site"), q.Get("kind"), nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, resources)
}

func (h *Handler) apiPeers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.proxy.Peers())
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// indexData feeds the overview template.
type indexData struct {
	Site      string
	Peers     []string
	Summaries []monitor.SiteSummary
	Jobs      []core.JobInfo
}

func (h *Handler) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	summaries, err := h.statusSummaries(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	jobs, _ := h.proxy.Jobs("", 0)
	data := indexData{
		Site:      h.proxy.Site(),
		Peers:     h.proxy.Peers(),
		Summaries: summaries,
		Jobs:      jobs,
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := h.tmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

const indexHTML = `<!DOCTYPE html>
<html>
<head><title>gridproxy — {{.Site}}</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin-bottom: 2em; }
th, td { border: 1px solid #999; padding: 0.3em 0.8em; text-align: right; }
th { background: #eee; }
td:first-child, th:first-child { text-align: left; }
</style>
</head>
<body>
<h1>Grid proxy — site {{.Site}}</h1>
<p>Connected peers: {{if .Peers}}{{range .Peers}}{{.}} {{end}}{{else}}none{{end}}</p>

<h2>Site status (compiled per site)</h2>
<table>
<tr><th>Site</th><th>Nodes</th><th>Up</th><th>CPU free %</th><th>RAM free MB</th><th>Disk free MB</th><th>Load</th><th>Procs</th></tr>
{{range .Summaries}}
<tr><td>{{.Site}}</td><td>{{.Nodes}}</td><td>{{.NodesUp}}</td><td>{{printf "%.1f" .CPUFreePct}}</td><td>{{.RAMFreeMB}}</td><td>{{.DiskFreeMB}}</td><td>{{printf "%.2f" .Load1}}</td><td>{{.RunningProcs}}</td></tr>
{{end}}
</table>

<h2>Jobs (newest first)</h2>
{{if .Jobs}}
<table>
<tr><th>App</th><th>State</th><th>Detail</th></tr>
{{range .Jobs}}
<tr><td>{{.AppID}}</td><td>{{.State}}</td><td>{{.Detail}}</td></tr>
{{end}}
</table>
{{else}}<p>No jobs launched from this proxy.</p>{{end}}
</body>
</html>`
