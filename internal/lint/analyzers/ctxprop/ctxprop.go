// Package ctxprop implements the gridlint analyzer that forbids minting
// fresh root contexts on handler, RPC and transfer paths.
//
// The invariant (DESIGN §14.3): inside the long-lived server packages —
// core, peerlink, stage, tunnel — context must be threaded from the
// caller, ultimately from an RPC lifetime or the proxy's run context, so
// that shutdown and peer death cancel in-flight work. A
// context.Background() (or TODO()) on such a path detaches the work from
// every deadline and cancellation above it; PR 1 fixed exactly this bug
// by deriving handler contexts from the rpc lifetime, and this analyzer
// keeps it fixed. Genuine roots (a daemon's run loop) are annotated
// `//lint:allow-background <why>`; main packages and tests are exempt by
// construction.
package ctxprop

import (
	"go/ast"

	"gridproxy/internal/lint/analysis"
	"gridproxy/internal/lint/lintutil"
)

// Analyzer is the ctxprop analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxprop",
	Doc:  "forbid context.Background/TODO on handler, RPC and transfer paths; context must flow from the caller",
	Run:  run,
}

// GuardedPackages names the packages (by package name) whose code paths
// must thread contexts. Shared with goroleak and lockhold: these are the
// long-lived server packages where a detached or blocked path outlives
// requests.
var GuardedPackages = map[string]bool{
	"core":       true,
	"gate":       true,
	"membership": true,
	"peerlink":   true,
	"proto":      true,
	"stage":      true,
	"tunnel":     true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !GuardedPackages[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if lintutil.InTestFile(pass, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintutil.Callee(pass.TypesInfo, call)
			if fn == nil || lintutil.PkgPath(fn) != "context" {
				return true
			}
			if fn.Name() != "Background" && fn.Name() != "TODO" {
				return true
			}
			if lintutil.Allowed(pass, call.Pos(), "allow-background") {
				return true
			}
			pass.Reportf(call.Pos(),
				"context.%s on a %s path: thread the caller's context so shutdown and peer death cancel this work (annotate //lint:allow-background <why> for a true root)",
				fn.Name(), pass.Pkg.Name())
			return true
		})
	}
	return nil, nil
}
