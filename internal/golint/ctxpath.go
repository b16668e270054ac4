package golint

import (
	"go/ast"
	"go/types"

	"repro/internal/goanalysis"
)

// CtxPath enforces the run-path contract: every exported function or
// method whose name says it executes work (Run*, Execute*, Campaign*)
// must accept a context.Context as its first parameter, so a cancelled
// campaign unwinds through every layer instead of stalling in one that
// forgot to thread the context.
var CtxPath = &goanalysis.Analyzer{
	Name: "ctxpath",
	Doc: "exported Run*/Execute*/Campaign* functions must take a " +
		"context.Context first parameter",
	Run: runCtxPath,
}

// ctxPathAllow exempts entry points that predate or deliberately sit
// outside the contract, keyed "pkg.Func" or "pkg.Recv.Func" (package
// base name, pointer receivers stripped).
var ctxPathAllow = map[string]string{
	"event.Scheduler.RunUntil":  "pure virtual-time pump, completes without blocking",
	"explore.Trace.RunStarted":  "observer callback invoked per run, not a run itself",
	"explore.Trace.RunFinished": "observer callback invoked per run, not a run itself",
	"lint.Run":                  "pure in-memory analysis, nothing to cancel",
}

// runPrefixes are the name prefixes that put a function on the run path.
var runPrefixes = []string{"Run", "Execute", "Campaign"}

func runCtxPath(p *goanalysis.Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !hasRunPrefix(fd.Name.Name) {
				continue
			}
			fn, _ := p.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if _, ok := ctxPathAllow[qualifiedName(p.Pkg, fn)]; ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Recv() != nil && !exportedRecv(sig.Recv().Type()) {
				continue // methods on unexported types are not API
			}
			if sig.Params().Len() > 0 && isContextContext(sig.Params().At(0).Type()) {
				continue
			}
			p.Reportf(fd.Name.Pos(),
				"exported %s does not take a context.Context first parameter; "+
					"cancellation cannot reach it", describe(p.Pkg, fn))
		}
	}
	return nil
}

func hasRunPrefix(name string) bool {
	for _, pre := range runPrefixes {
		if len(name) >= len(pre) && name[:len(pre)] == pre {
			return true
		}
	}
	return false
}

// qualifiedName renders fn as "pkg.Func" or "pkg.Recv.Func" with the
// package base name and any pointer receiver stripped.
func qualifiedName(pkg *types.Package, fn *types.Func) string {
	name := pkg.Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if rn := recvTypeName(recv.Type()); rn != "" {
			name += rn + "."
		}
	}
	return name + fn.Name()
}

func describe(pkg *types.Package, fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "method " + qualifiedName(pkg, fn)
	}
	return "function " + qualifiedName(pkg, fn)
}

func recvTypeName(t types.Type) string {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func exportedRecv(t types.Type) bool {
	name := recvTypeName(t)
	return name != "" && ast.IsExported(name)
}
