package analyze

import (
	"go/ast"
	"strings"
)

// ctxEntryPkgs are the packages whose exported entry points must accept
// a context.Context: the solve plane's public surface (core), the
// serving layer (serve), the multi-shard plane (cluster), and the
// engine facade. Matching is by package name so fixtures exercise the
// same path.
var ctxEntryPkgs = map[string]bool{
	"core":    true,
	"serve":   true,
	"cluster": true,
	"engine":  true,
}

// ctxEntryPrefixes match entry-point names: long-running, cancellable
// operations. Constructors, accessors and stats readers are not entry
// points and carry no context.
var ctxEntryPrefixes = []string{"Solve", "Serve", "Run", "Mutate"}

// CtxFlow enforces context threading on the serving path:
//
//   - exported entry points (Solve*/Serve*/Run*/Mutate* in core, serve,
//     cluster, engine) must accept a context.Context parameter, so
//     deadlines and shutdown propagate end-to-end;
//   - library code (non-main, non-test) must not manufacture
//     context.Background() or context.TODO(): a fresh root context
//     severs the caller's deadline and makes the call uncancellable.
//
// Two idioms are exempt, by refinement rather than suppression:
// functions documented "Deprecated:" (compat shims whose whole purpose
// is to supply the missing context), and X() convenience twins that
// delegate to XContext(...) — the stdlib's own Run/RunContext pattern.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "exported solver/serve/cluster entry points must accept and thread " +
		"context.Context; library code must not call context.Background()/TODO()",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, fd := range funcDecls(pass.NonTestFiles()) {
		checkEntryPoint(pass, fd)
		checkBackground(pass, fd)
	}
	return nil
}

// checkEntryPoint requires a context parameter on exported entry points.
func checkEntryPoint(pass *Pass, fd *ast.FuncDecl) {
	if !ctxEntryPkgs[pass.Pkg.Name()] || !fd.Name.IsExported() {
		return
	}
	entry := false
	for _, prefix := range ctxEntryPrefixes {
		// Word-boundary match: "SolveComponents" is a Solve entry point,
		// "Solver" (the accessor) is not.
		if rest, ok := strings.CutPrefix(fd.Name.Name, prefix); ok &&
			(rest == "" || rest[0] < 'a' || rest[0] > 'z') {
			entry = true
			break
		}
	}
	if !entry || isDeprecated(fd.Doc) || delegatesToContextTwin(pass, fd) {
		return
	}
	if hasCtxParam(pass, fd) {
		return
	}
	// Serve(ln net.Listener) follows the net/http lifecycle idiom:
	// cancellation arrives via Shutdown(ctx)/Close, not a parameter.
	for _, field := range fd.Type.Params.List {
		if isNamed(pass.Info.Types[field.Type].Type, "net", "Listener") {
			return
		}
	}
	pass.Reportf(fd.Name.Pos(), "exported entry point %s.%s does not accept a context.Context: "+
		"deadlines and shutdown cannot propagate through it (add ctx as the first parameter)",
		pass.Pkg.Name(), fd.Name.Name)
}

func hasCtxParam(pass *Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		t := pass.Info.Types[field.Type].Type
		if isNamed(t, "context", "Context") {
			return true
		}
		// An *http.Request carries its context (r.Context()), so handler
		// signatures like ServeHTTP(w, r) thread it implicitly.
		if isNamed(t, "net/http", "Request") {
			return true
		}
	}
	return false
}

// delegatesToContextTwin reports whether fd is the X() convenience
// wrapper of an XContext method: its body calls <name>Context.
func delegatesToContextTwin(pass *Pass, fd *ast.FuncDecl) bool {
	twin := fd.Name.Name + "Context"
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		switch fn := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			found = fn.Name == twin
		case *ast.SelectorExpr:
			found = fn.Sel.Name == twin
		}
		return !found
	})
	return found
}

// checkBackground flags context.Background()/TODO() in library code.
func checkBackground(pass *Pass, fd *ast.FuncDecl) {
	if isDeprecated(fd.Doc) || delegatesToContextTwin(pass, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, name := calleePkgFunc(pass.Info, call)
		if path == "context" && (name == "Background" || name == "TODO") {
			pass.Reportf(call.Pos(), "context.%s in library code: accept a ctx from the caller instead — a fresh "+
				"root context severs deadlines and cancellation (only main packages may mint one)", name)
		}
		return true
	})
}
