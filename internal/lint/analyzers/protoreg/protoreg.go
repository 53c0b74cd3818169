// Package protoreg implements the gridlint analyzer that keeps the
// control protocol's dispatch sound.
//
// The paper's protocol (DESIGN §3) is code-based: every message is a
// (Code, Corr, Payload) triple, and proto.Unmarshal produces only the
// bodies that a row of the proto package's table builds. That the table
// covers every code, and each row the body of its own code, is pinned by
// the package's own test (TestTableCoversEveryCode). What the compiler
// and that test cannot see is how other packages use the bodies, so two
// checks remain here:
//
//  1. dispatch arms (`case *proto.T:` over a proto.Body, and type
//     assertions on one) name bodies the table builds — an arm for any
//     other type is dead, Unmarshal never produces it;
//  2. whole-program (standalone gridlint only), a row of the table whose
//     body no package in scope dispatches or constructs is flagged as a
//     dead protocol code.
package protoreg

import (
	"go/ast"
	"go/token"
	"go/types"

	"gridproxy/internal/lint/analysis"
	"gridproxy/internal/lint/lintutil"
)

// Analyzer is the protoreg analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "protoreg",
	Doc:        "dispatch arms must name bodies the proto table builds, and every code in the table must be used",
	Run:        run,
	ProgramRun: programRun,
	FactTypes:  []analysis.Fact{(*RegisteredBodies)(nil)},
}

// RegisteredBodies is the package fact the proto package exports: which
// body types a row of its table builds, and under which code constant.
// Importing packages use it to validate dispatch arms.
type RegisteredBodies struct {
	// Bodies maps body type name to the registered code constant name.
	Bodies map[string]string
}

// AFact marks RegisteredBodies as a fact type.
func (*RegisteredBodies) AFact() {}

// registration records one row of the table,
// `CodeX: func() Body { return &X{} }`.
type registration struct {
	code    string // code constant name
	body    string // body type name ("" if the factory shape was opaque)
	pos     token.Pos
	factory span // the row's factory, where constructing a body does not make it alive
}

// result feeds the whole-program dead-code check.
type result struct {
	isProto   bool
	protoPath string               // importers: path of the proto package seen
	codes     map[string]token.Pos // proto: code constant declarations
	regs      []registration       // proto: the rows of the table
	alive     map[string]bool      // body types dispatched, asserted or constructed here
}

func run(pass *analysis.Pass) (interface{}, error) {
	if isProtoPackage(pass.Pkg) {
		return runProto(pass)
	}
	return runImporter(pass)
}

// runProto reads the table inside the proto package itself.
func runProto(pass *analysis.Pass) (interface{}, error) {
	res := &result{isProto: true, codes: map[string]token.Pos{}, alive: map[string]bool{}}
	codeObj := pass.Pkg.Scope().Lookup("Code").(*types.TypeName)
	for _, name := range pass.Pkg.Scope().Names() {
		if c, ok := pass.Pkg.Scope().Lookup(name).(*types.Const); ok && types.Identical(c.Type(), codeObj.Type()) {
			res.codes[name] = c.Pos()
		}
	}
	res.regs = collectRegistrations(pass, pass.Pkg)
	registered := map[string]string{} // body -> code
	var factories []span
	for _, r := range res.regs {
		if r.body != "" {
			registered[r.body] = r.code
		}
		factories = append(factories, r.factory)
	}
	// A composite literal inside a row's factory does not make a body
	// alive — every factory constructs its body by definition, so
	// counting them would blind the whole-program dead-code check.
	collectConstructed(pass, pass.Pkg, res.alive, factories)
	pass.ExportPackageFact(&RegisteredBodies{Bodies: registered})
	return res, nil
}

// runImporter validates dispatch arms in packages that use the protocol.
func runImporter(pass *analysis.Pass) (interface{}, error) {
	var protoPkg *types.Package
	for _, imp := range pass.Pkg.Imports() {
		if isProtoPackage(imp) {
			protoPkg = imp
			break
		}
	}
	if protoPkg == nil {
		return nil, nil
	}
	res := &result{protoPath: protoPkg.Path(), alive: map[string]bool{}}
	var fact RegisteredBodies
	haveFact := pass.ImportPackageFact(protoPkg, &fact)
	bodyObj, _ := protoPkg.Scope().Lookup("Body").(*types.TypeName)

	checkArm := func(te ast.Expr) {
		t := pass.TypesInfo.Types[te].Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() != protoPkg {
			return
		}
		name := named.Obj().Name()
		res.alive[name] = true
		if haveFact && fact.Bodies[name] == "" && !lintutil.InTestFile(pass, te.Pos()) {
			pass.Reportf(te.Pos(),
				"dispatch arm for %s.%s, which no row of the proto table builds — Unmarshal can never produce it, so this arm is dead",
				protoPkg.Name(), name)
		}
	}

	isBody := func(e ast.Expr) bool {
		if bodyObj == nil {
			return false
		}
		t := pass.TypesInfo.Types[e].Type
		named, ok := t.(*types.Named)
		return ok && named.Obj() == bodyObj
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSwitchStmt:
				var operand ast.Expr
				switch assign := n.Assign.(type) {
				case *ast.ExprStmt:
					if ta, ok := assign.X.(*ast.TypeAssertExpr); ok {
						operand = ta.X
					}
				case *ast.AssignStmt:
					if ta, ok := assign.Rhs[0].(*ast.TypeAssertExpr); ok {
						operand = ta.X
					}
				}
				if operand == nil || !isBody(operand) {
					return true
				}
				for _, c := range n.Body.List {
					cc := c.(*ast.CaseClause)
					for _, te := range cc.List {
						checkArm(te)
					}
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil && isBody(n.X) {
					checkArm(n.Type)
				}
			}
			return true
		})
	}
	collectConstructed(pass, protoPkg, res.alive, nil)
	return res, nil
}

// programRun flags rows of the table whose body no package in scope
// dispatches or constructs — dead protocol surface.
func programRun(prog *analysis.Program, report func(analysis.Diagnostic)) {
	var proto *result
	alive := map[string]bool{}
	consumers := false
	for _, u := range prog.Units {
		r, ok := u.Result.(*result)
		if !ok || r == nil {
			continue
		}
		if r.isProto {
			proto = r
		} else {
			consumers = true
		}
		for name := range r.alive {
			alive[name] = true
		}
	}
	if proto == nil || !consumers {
		return // partial scope: no consumer information to judge by
	}
	for _, r := range proto.regs {
		if r.body == "" || alive[r.body] {
			continue
		}
		pos := proto.codes[r.code]
		if !pos.IsValid() {
			pos = r.pos
		}
		report(analysis.Diagnostic{
			Pos: pos,
			Message: "protocol code " + r.code + " (body " + r.body +
				") is in the table but never dispatched or constructed anywhere in scope — dead protocol code",
		})
	}
}

// collectRegistrations finds the rows of regPkg's table: keyed elements
// of a composite literal whose key is a Code constant and whose value is
// a factory function literal.
func collectRegistrations(pass *analysis.Pass, regPkg *types.Package) []registration {
	var regs []registration
	for _, file := range pass.Files {
		if lintutil.InTestFile(pass, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(kv.Key).(*ast.Ident)
			if !ok {
				return true
			}
			c, ok := pass.TypesInfo.Uses[id].(*types.Const)
			if !ok || c.Pkg() != regPkg {
				return true
			}
			if _, isFunc := ast.Unparen(kv.Value).(*ast.FuncLit); !isFunc {
				return true
			}
			regs = append(regs, registration{
				code:    c.Name(),
				body:    factoryBodyType(kv.Value),
				pos:     kv.Pos(),
				factory: span{kv.Value.Pos(), kv.Value.End()},
			})
			return true
		})
	}
	return regs
}

// factoryBodyType extracts T from `func() Body { return &T{} }`, or "".
func factoryBodyType(arg ast.Expr) string {
	lit, ok := ast.Unparen(arg).(*ast.FuncLit)
	if !ok || len(lit.Body.List) != 1 {
		return ""
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	unary, ok := ast.Unparen(ret.Results[0]).(*ast.UnaryExpr)
	if !ok || unary.Op != token.AND {
		return ""
	}
	comp, ok := unary.X.(*ast.CompositeLit)
	if !ok {
		return ""
	}
	if id, ok := comp.Type.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// span is a half-open position range [from, to] used to exclude factory
// literals from liveness collection.
type span struct{ from, to token.Pos }

// collectConstructed records composite literals of protoPkg body types,
// skipping literals inside the given spans.
func collectConstructed(pass *analysis.Pass, protoPkg *types.Package, alive map[string]bool, skip []span) {
	inSkip := func(pos token.Pos) bool {
		for _, s := range skip {
			if s.from <= pos && pos < s.to {
				return true
			}
		}
		return false
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || inSkip(lit.Pos()) {
				return true
			}
			t := pass.TypesInfo.Types[lit].Type
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == protoPkg.Path() {
				alive[named.Obj().Name()] = true
			}
			return true
		})
	}
}

// isProtoPackage identifies the protocol package structurally: named
// "proto", declaring a Code type and a Body type. Fixture packages in
// analyzer tests qualify exactly like internal/proto.
func isProtoPackage(pkg *types.Package) bool {
	if pkg == nil || pkg.Name() != "proto" {
		return false
	}
	_, hasCode := pkg.Scope().Lookup("Code").(*types.TypeName)
	_, hasBody := pkg.Scope().Lookup("Body").(*types.TypeName)
	return hasCode && hasBody
}
