package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocumentedKeysAreTheKeysRead keeps the key inventory in each daemon's
// header comment honest: every "key = value" line documented there must
// be a key some cfg accessor in that file reads, and the other way round.
// A knob added without a line of documentation, or removed with its line
// left behind, fails here.
func TestDocumentedKeysAreTheKeysRead(t *testing.T) {
	for daemon, path := range map[string]string{"gridproxyd": "main.go", "gridgate": "../gridgate/main.go"} {
		t.Run(daemon, func(t *testing.T) { checkKeyInventory(t, path) })
	}
}

func checkKeyInventory(t *testing.T, path string) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if file.Doc == nil {
		t.Fatalf("%s has no header comment", path)
	}

	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*([a-z][a-z0-9_]*)\s+=`).FindAllStringSubmatch(file.Doc.Text(), -1) {
		documented[m[1]] = true
	}

	read := map[string]bool{}
	accessors := map[string]bool{"Get": true, "Has": true, "Int": true, "Bool": true, "Duration": true}
	ast.Inspect(file, func(n ast.Node) bool {
		if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name == "floatKey" {
			// Its key is a parameter; its callers name the key instead.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var keyArg ast.Expr
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if recv, ok := fun.X.(*ast.Ident); ok && recv.Name == "cfg" && accessors[fun.Sel.Name] && len(call.Args) > 0 {
				keyArg = call.Args[0]
			}
		case *ast.Ident:
			if fun.Name == "floatKey" && len(call.Args) > 1 {
				keyArg = call.Args[1]
			}
		}
		if keyArg == nil {
			return true
		}
		lit, ok := keyArg.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: a config read with a computed key; the inventory check cannot see it", fset.Position(call.Pos()))
			return true
		}
		key, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		read[key] = true
		return true
	})

	if len(read) == 0 || len(documented) == 0 {
		t.Fatalf("found %d keys read and %d documented; the parsing is broken", len(read), len(documented))
	}
	for _, key := range sortedKeys(read) {
		if !documented[key] {
			t.Errorf("key %q is read but missing from the header comment", key)
		}
	}
	for _, key := range sortedKeys(documented) {
		if !read[key] {
			t.Errorf("key %q is documented in the header comment but nothing reads it", key)
		}
	}
	t.Logf("%d keys", len(read))
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestUnknownKeyIsRefused: a key the daemon does not read (here ones this
// daemon used to read) stops it, named, before it loads a certificate.
func TestUnknownKeyIsRefused(t *testing.T) {
	for _, line := range []string{"max_tunnels = 8", "fence_retry = 2s", "hello_timeout = 10s"} {
		key := strings.Fields(line)[0]
		path := filepath.Join(t.TempDir(), "site.conf")
		if err := os.WriteFile(path, []byte("site = sitea\n"+line+"\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-config", path})
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("run = %v, want %s refused by name", err, key)
		}
	}
}
