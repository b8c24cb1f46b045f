// Package sharedwrite flags writes to captured variables inside the
// closures the fork-join frameworks run concurrently.
//
// Closures passed to parallel.For / ForWorker / EachWorker /
// ReduceSum and sweep.Map / MapWorker / Run execute on
// several workers at once. A write to a variable captured from the
// enclosing scope — a scalar accumulation (`sum += x`), a
// reassignment, a captured map entry, a captured struct field — is
// the non-deterministic-reduction bug class: a data race whose
// winning order varies run to run. The deterministic patterns the
// frameworks provide remain allowed without comment:
//
//   - element writes into captured slices (`out[i] = ...`) — the
//     frameworks' chunk-indexed slots, where each index is written by
//     exactly one block;
//   - anything declared inside the closure, including per-worker
//     scratch obtained from parallel.Scratch.
//
// A write that is provably safe for another reason carries its
// justification in place:
//
//	last = v //fpcc:sharedwrite -- workers==1 on this path
package sharedwrite

import (
	"go/ast"
	"go/token"
	"go/types"

	"fpcc/internal/analysis"
	"fpcc/internal/analysis/config"
)

// Analyzer is the sharedwrite check.
var Analyzer = &analysis.Analyzer{
	Name: "sharedwrite",
	Doc:  "flag racy writes to captured variables inside parallel.For/EachWorker and sweep.Map closures",
	Run:  run,
}

// parallelFuncs and sweepFuncs are the fork-join entry points whose
// closure arguments run concurrently.
var parallelFuncs = map[string]bool{
	"For": true, "ForWorker": true, "EachWorker": true, "ReduceSum": true,
}
var sweepFuncs = map[string]bool{
	"Map": true, "MapWorker": true, "Run": true,
}

func run(pass *analysis.Pass) error {
	if !config.UnderModule(pass.Pkg.Path()) || config.In(pass.Pkg.Path(), config.SharedwriteExempt) {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeOf(pass.TypesInfo, call)
			if !analysis.IsPkgFunc(callee, config.ParallelPackage, parallelFuncs) &&
				!analysis.IsPkgFunc(callee, config.SweepPackage, sweepFuncs) {
				return true
			}
			qual := callee.Pkg().Name() + "." + callee.Name()
			for _, arg := range call.Args {
				if lit, ok := analysis.Unparen(arg).(*ast.FuncLit); ok {
					checkClosure(pass, lit, qual)
				}
			}
			return true
		})
	}
	return nil
}

// checkClosure reports racy writes to captured state anywhere inside
// the worker closure (nested literals included — they still run on
// the worker).
func checkClosure(pass *analysis.Pass, lit *ast.FuncLit, qual string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				// := defines new (closure-local) variables; x, y = ...
				// with ASSIGN writes existing ones.
				if s.Tok == token.DEFINE {
					continue
				}
				checkTarget(pass, lit, lhs, qual)
			}
		case *ast.IncDecStmt:
			checkTarget(pass, lit, s.X, qual)
		case *ast.RangeStmt:
			if s.Tok == token.ASSIGN {
				if s.Key != nil {
					checkTarget(pass, lit, s.Key, qual)
				}
				if s.Value != nil {
					checkTarget(pass, lit, s.Value, qual)
				}
			}
		}
		return true
	})
}

// checkTarget classifies one assignment target inside the closure.
func checkTarget(pass *analysis.Pass, lit *ast.FuncLit, lhs ast.Expr, qual string) {
	switch l := analysis.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := analysis.ObjectOf(pass.TypesInfo, l)
		if isCapturedVar(obj, lit) {
			pass.Reportf(l.Pos(),
				"sharedwrite: assignment to captured variable %q inside a %s closure races across workers: use per-worker scratch or chunk-indexed slots (//fpcc:sharedwrite -- <why> to suppress)",
				l.Name, qual)
		}
	case *ast.IndexExpr:
		// Slice element writes are the frameworks' chunk-indexed
		// slots; captured MAP writes race on the map's internals.
		tv, ok := pass.TypesInfo.Types[l.X]
		if !ok || tv.Type == nil {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return
		}
		if root := analysis.RootIdent(l.X); root != nil {
			if isCapturedVar(analysis.ObjectOf(pass.TypesInfo, root), lit) {
				pass.Reportf(l.Pos(),
					"sharedwrite: write to captured map %q inside a %s closure races across workers (//fpcc:sharedwrite -- <why> to suppress)",
					root.Name, qual)
			}
		}
	case *ast.SelectorExpr:
		// Direct field writes on a captured value (x.f = v). Field
		// writes through slice elements (xs[i].f = v) root at an
		// index expression and are allowed above.
		if root, ok := analysis.Unparen(l.X).(*ast.Ident); ok {
			if isCapturedVar(analysis.ObjectOf(pass.TypesInfo, root), lit) {
				pass.Reportf(l.Pos(),
					"sharedwrite: field write on captured %q inside a %s closure races across workers (//fpcc:sharedwrite -- <why> to suppress)",
					root.Name, qual)
			}
		}
	case *ast.StarExpr:
		if root := analysis.RootIdent(l); root != nil {
			if isCapturedVar(analysis.ObjectOf(pass.TypesInfo, root), lit) {
				pass.Reportf(l.Pos(),
					"sharedwrite: write through captured pointer %q inside a %s closure races across workers (//fpcc:sharedwrite -- <why> to suppress)",
					root.Name, qual)
			}
		}
	}
}

// isCapturedVar reports whether obj is a local variable or parameter
// declared outside the closure (package-level state is excluded: it
// is shared by design and owned by whoever synchronizes it, and the
// race detector in CI covers it).
func isCapturedVar(obj types.Object, lit *ast.FuncLit) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	// Package-level variables are not "captured" — skip them.
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return false
	}
	return analysis.DeclaredOutside(obj, lit)
}
