package config

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/auth"
)

func TestParseBasics(t *testing.T) {
	input := `
# gridproxy config
site = sitea
wan_addr = 0.0.0.0:7100
nodes = 4
announce = 45s
verbose = true
empty =
`
	cfg, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Get("site", ""); got != "sitea" {
		t.Errorf("site = %q", got)
	}
	if got := cfg.Get("missing", "fallback"); got != "fallback" {
		t.Errorf("default = %q", got)
	}
	if !cfg.Has("empty") || cfg.Get("empty", "x") != "" {
		t.Error("empty value mishandled")
	}
	n, err := cfg.Int("nodes", 0)
	if err != nil || n != 4 {
		t.Errorf("nodes = %d, %v", n, err)
	}
	d, err := cfg.Duration("announce", 0)
	if err != nil || d != 45*time.Second {
		t.Errorf("announce = %v, %v", d, err)
	}
	b, err := cfg.Bool("verbose", false)
	if err != nil || !b {
		t.Errorf("verbose = %v, %v", b, err)
	}
}

// TestUnreadNamesEveryKeyNotAskedFor: a key is read once any accessor
// asks for it, present or not; the keys nobody asked for are named.
func TestUnreadNamesEveryKeyNotAskedFor(t *testing.T) {
	cfg, err := Parse(strings.NewReader("site = a\nnodes = 2\nmax_tunnels = 8\nbreaker_max_open = 1s\nverbose = true\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Get("site", "")
	cfg.Has("verbose")
	if _, err := cfg.Int("nodes", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Duration("absent", 0); err != nil {
		t.Fatal(err)
	}
	err = cfg.Unread()
	if err == nil || !strings.Contains(err.Error(), "breaker_max_open, max_tunnels") {
		t.Fatalf("Unread = %v, want both unread keys named", err)
	}
	if strings.Contains(err.Error(), "nodes") || strings.Contains(err.Error(), "verbose") {
		t.Fatalf("Unread = %v names a key that was read", err)
	}
	_, _ = cfg.Int("max_tunnels", 0)
	_, _ = cfg.Duration("breaker_max_open", 0)
	if err := cfg.Unread(); err != nil {
		t.Fatalf("Unread after every key was read = %v", err)
	}
}

func TestParseDefaults(t *testing.T) {
	cfg, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cfg.Int("x", 7); err != nil || n != 7 {
		t.Errorf("Int default = %d, %v", n, err)
	}
	if d, err := cfg.Duration("x", time.Minute); err != nil || d != time.Minute {
		t.Errorf("Duration default = %v, %v", d, err)
	}
	if b, err := cfg.Bool("x", true); err != nil || !b {
		t.Errorf("Bool default = %v, %v", b, err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("no-equals-here")); err == nil {
		t.Error("missing '=' accepted")
	}
	if _, err := Parse(strings.NewReader("= value")); err == nil {
		t.Error("empty key accepted")
	}
	cfg, err := Parse(strings.NewReader("n = notanumber"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Int("n", 0); err == nil {
		t.Error("bad int accepted")
	}
	if _, err := cfg.Duration("n", 0); err == nil {
		t.Error("bad duration accepted")
	}
	if _, err := cfg.Bool("n", false); err == nil {
		t.Error("bad bool accepted")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.conf")
	if err := os.WriteFile(path, []byte("site = x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Get("site", "") != "x" {
		t.Error("file content lost")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.conf")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseUsers(t *testing.T) {
	input := `
# grid users
user alice secret researchers,operators
user bob hunter2
grant user alice mpi site:*
grant group researchers status *
`
	store, err := ParseUsers(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyPassword("alice", "secret"); err != nil {
		t.Errorf("alice password: %v", err)
	}
	if err := store.VerifyPassword("bob", "hunter2"); err != nil {
		t.Errorf("bob password: %v", err)
	}
	if err := store.VerifyPassword("alice", "wrong"); !errors.Is(err, auth.ErrInvalidCredentials) {
		t.Errorf("wrong password: %v", err)
	}
	if err := store.Allowed("alice", "mpi", "site:b"); err != nil {
		t.Errorf("alice mpi: %v", err)
	}
	if err := store.Allowed("alice", "status", "grid"); err != nil {
		t.Errorf("alice group status: %v", err)
	}
	if err := store.Allowed("bob", "mpi", "site:b"); err == nil {
		t.Error("bob mpi allowed without grant")
	}
	groups := store.Groups("alice")
	if len(groups) != 2 {
		t.Errorf("alice groups = %v", groups)
	}
}

func TestParseUsersErrors(t *testing.T) {
	cases := []string{
		"user onlyname",
		"grant user alice mpi", // too few fields
		"grant robot alice mpi site:*",
		"grant user ghost mpi site:*", // unknown user
		"frobnicate x y",
		"user dup pw\nuser dup pw2",
	}
	for _, input := range cases {
		if _, err := ParseUsers(strings.NewReader(input)); err == nil {
			t.Errorf("accepted %q", input)
		}
	}
}
