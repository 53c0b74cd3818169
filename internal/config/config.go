// Package config parses the configuration files of the gridproxy
// daemons: a flat "key = value" format for daemon settings, and a grid
// users file defining accounts, groups, and permissions — the replicated
// security configuration every proxy loads.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"gridproxy/internal/auth"
)

// Config is a parsed key/value configuration.
type Config struct {
	values map[string]string
}

// Parse reads "key = value" lines from r. Blank lines and lines starting
// with '#' are ignored; later keys override earlier ones.
func Parse(r io.Reader) (*Config, error) {
	cfg := &Config{values: make(map[string]string)}
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("config: line %d: expected key = value, got %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		if key == "" {
			return nil, fmt.Errorf("config: line %d: empty key", lineNo)
		}
		cfg.values[key] = strings.TrimSpace(value)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("config: read: %w", err)
	}
	return cfg, nil
}

// LoadFile parses the file at path.
func LoadFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: open: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Get returns the value for key, or def when absent.
func (c *Config) Get(key, def string) string {
	if v, ok := c.values[key]; ok {
		return v
	}
	return def
}

// Has reports whether key is set.
func (c *Config) Has(key string) bool {
	_, ok := c.values[key]
	return ok
}

// Int returns an integer value, or def when absent.
func (c *Config) Int(key string, def int) (int, error) {
	v, ok := c.values[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("config: key %q: %w", key, err)
	}
	return n, nil
}

// Bool returns a boolean value ("true"/"false"/"1"/"0"), or def.
func (c *Config) Bool(key string, def bool) (bool, error) {
	v, ok := c.values[key]
	if !ok {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("config: key %q: %w", key, err)
	}
	return b, nil
}

// Duration returns a time.Duration value ("30s", "5m"), or def.
func (c *Config) Duration(key string, def time.Duration) (time.Duration, error) {
	v, ok := c.values[key]
	if !ok {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("config: key %q: %w", key, err)
	}
	return d, nil
}

// --- users file --------------------------------------------------------------

// ParseUsers builds an auth.Store from a users file:
//
//	# account definitions
//	user <name> <password> [group1,group2,...]
//	# permission grants
//	grant user <name> <action> <resource>
//	grant group <group> <action> <resource>
//
// Passwords in the file are hashed into the store; the file itself should
// be protected like /etc/shadow.
func ParseUsers(r io.Reader, opts ...auth.StoreOption) (*auth.Store, error) {
	store, err := auth.NewStore(opts...)
	if err != nil {
		return nil, err
	}
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "user":
			if len(fields) < 3 || len(fields) > 4 {
				return nil, fmt.Errorf("config: line %d: user <name> <password> [groups]", lineNo)
			}
			name, password := fields[1], fields[2]
			if err := store.AddUser(name, password); err != nil {
				return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			if len(fields) == 4 {
				for _, group := range strings.Split(fields[3], ",") {
					if group == "" {
						continue
					}
					if err := store.AddToGroup(name, group); err != nil {
						return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
					}
				}
			}
		case "grant":
			if len(fields) != 5 {
				return nil, fmt.Errorf("config: line %d: grant user|group <subject> <action> <resource>", lineNo)
			}
			perm := auth.Permission{Action: fields[3], Resource: fields[4]}
			switch fields[1] {
			case "user":
				if err := store.GrantUser(fields[2], perm); err != nil {
					return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
				}
			case "group":
				store.GrantGroup(fields[2], perm)
			default:
				return nil, fmt.Errorf("config: line %d: grant subject must be user or group", lineNo)
			}
		default:
			return nil, fmt.Errorf("config: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("config: read users: %w", err)
	}
	return store, nil
}

// LoadUsers parses the users file at path.
func LoadUsers(path string, opts ...auth.StoreOption) (*auth.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: open users: %w", err)
	}
	defer f.Close()
	return ParseUsers(f, opts...)
}
