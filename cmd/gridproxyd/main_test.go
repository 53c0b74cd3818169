package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// TestDocumentedKeysAreTheKeysRead keeps the key inventory in main.go's
// header comment honest: every "key = value" line documented there must
// be a key some cfg accessor in this file reads, and the other way
// round. A knob added without a line of documentation, or removed with
// its line left behind, fails here.
func TestDocumentedKeysAreTheKeysRead(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if file.Doc == nil {
		t.Fatal("main.go has no header comment")
	}

	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*([a-z][a-z0-9_]*)\s+=`).FindAllStringSubmatch(file.Doc.Text(), -1) {
		documented[m[1]] = true
	}

	read := map[string]bool{}
	accessors := map[string]bool{"Get": true, "Has": true, "Int": true, "Bool": true, "Duration": true}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !accessors[sel.Sel.Name] {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "cfg" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: cfg.%s with a computed key; the inventory check cannot see it", fset.Position(call.Pos()), sel.Sel.Name)
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
			t.Errorf("key %q is read by gridproxyd but missing from the header comment", key)
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
