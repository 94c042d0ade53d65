package analysis

import (
	"go/ast"
	"go/types"
)

// invgate enforces the invariant-gating discipline of internal/inv: every
// inv.Failf / inv.Fail call must be dominated by an inv.On() check, so a
// production run pays exactly one predictable branch per check site and
// never evaluates the format arguments. The rule covers both the package
// functions and the per-run recorder's methods — rec.Failf resolves to the
// same internal/inv symbols, and rec.On() satisfies the guard the same way
// inv.On() does. Accepted guards:
//
//	if inv.On() && cond { inv.Failf(...) }          // condition guard
//	if inv.On() { ... inv.Failf(...) ... }          // block guard
//	on := inv.On(); ...; if on && cond { ... }      // hoisted guard
//	if !inv.On() { return }; ...; inv.Failf(...)    // early return
//	if rec := x.rec; rec.On() { rec.Failf(...) }    // recorder-method form
//
// The guard must dominate the site itself: a helper whose Failf is bare
// is a finding even when every caller guards, because the rule has to
// hold for the next caller too.
//
// Taking inv.Failf / inv.Fail as a function value is always a finding:
// once the value escapes, no static analysis can keep the invocation
// behind a guard.
//
// inv.Check is exempt: it is documented as the ungated cold-path form.
type invgate struct{}

func (invgate) name() string { return "invgate" }

func (invgate) run(ctx *context, pkg *Package) {
	if pathIs(pkg.Path, "internal/inv") {
		return
	}
	info := pkg.Info
	guards := collectGuardVars(pkg)
	walkStack(pkg, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := funcObj(info, n)
			if !isInvFail(fn) || guardedByOn(info, guards, stack) {
				return
			}
			ctx.reportf("invgate", n.Pos(),
				"inv.%s is not dominated by an inv.On() check (wrap the site in `if inv.On()` so disabled runs pay one branch)", fn.Name())
		case *ast.Ident:
			fn, _ := info.Uses[n].(*types.Func)
			if !isInvFail(fn) || inCallPosition(n, stack) {
				return
			}
			ctx.reportf("invgate", n.Pos(),
				"inv.%s taken as a function value escapes the inv.On() gating discipline (call it directly under a guard)", fn.Name())
		}
	})
}

// isInvFail reports whether fn is internal/inv's Failf or Fail (package
// function or Recorder method).
func isInvFail(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !pathIs(fn.Pkg().Path(), "internal/inv") {
		return false
	}
	return fn.Name() == "Failf" || fn.Name() == "Fail"
}

// inCallPosition reports whether expr (possibly wrapped in the selector or
// parens directly above it on the stack) is the Fun of an enclosing call —
// i.e. a plain invocation rather than a value use.
func inCallPosition(expr ast.Expr, stack []ast.Node) bool {
	top := expr
	i := len(stack) - 1
	for ; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.SelectorExpr:
			// Only the Sel side continues the callable expression; an
			// ident on the X side (package qualifier, receiver) is never
			// itself the called value.
			if parent.Sel != top {
				return false
			}
			top = parent
			continue
		case *ast.ParenExpr:
			top = parent
			continue
		case *ast.CallExpr:
			return ast.Unparen(parent.Fun) == ast.Unparen(top)
		}
		return false
	}
	return false
}

// collectGuardVars finds local variables bound to an inv.On() result
// ("on := inv.On()" or "on := inv.On() && …").
func collectGuardVars(pkg *Package) map[types.Object]bool {
	guards := make(map[types.Object]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if !assertsOn(pkg.Info, nil, assign.Rhs[i]) {
					continue
				}
				if obj := pkg.Info.Defs[id]; obj != nil {
					guards[obj] = true
				} else if obj := pkg.Info.Uses[id]; obj != nil {
					guards[obj] = true
				}
			}
			return true
		})
	}
	return guards
}

// guardedByOn reports whether the node at the top of stack is dominated
// by an inv.On() check.
func guardedByOn(info *types.Info, guards map[types.Object]bool, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if ok {
			// Which branch holds the call?
			var branch ast.Node
			if i+1 < len(stack) {
				branch = stack[i+1]
			}
			if branch == ifStmt.Body && assertsOn(info, guards, ifStmt.Cond) {
				return true
			}
			if branch == ifStmt.Else && assertsOff(info, guards, ifStmt.Cond) {
				return true
			}
		}
		// Early-return dominance: a preceding `if !inv.On() { return }`
		// sibling in any enclosing block.
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok || i+1 >= len(stack) {
			continue
		}
		child := stack[i+1]
		for _, stmt := range block.List {
			if stmt == child {
				break
			}
			bail, ok := stmt.(*ast.IfStmt)
			if !ok || !assertsOff(info, guards, bail.Cond) {
				continue
			}
			if blockDiverts(bail.Body) {
				return true
			}
		}
	}
	return false
}

// assertsOn reports whether cond being true implies inv.On() returned
// true: the call itself, a guard variable, or an && chain containing
// either. Under || neither operand is implied, so it does not count.
func assertsOn(info *types.Info, guards map[types.Object]bool, cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		fn := funcObj(info, e)
		return fn != nil && fn.Name() == "On" && fn.Pkg() != nil && pathIs(fn.Pkg().Path(), "internal/inv")
	case *ast.Ident:
		return guards != nil && guards[info.Uses[e]]
	case *ast.BinaryExpr:
		if e.Op.String() == "&&" {
			return assertsOn(info, guards, e.X) || assertsOn(info, guards, e.Y)
		}
	}
	return false
}

// assertsOff reports whether cond being true implies inv.On() returned
// false. Only the straightforward negation forms `!inv.On()` and
// `!guard` qualify; composite conditions give no such guarantee.
func assertsOff(info *types.Info, guards map[types.Object]bool, cond ast.Expr) bool {
	e := ast.Unparen(cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "!" {
		return assertsOn(info, guards, u.X)
	}
	return false
}

// blockDiverts reports whether the block unconditionally leaves the
// enclosing function (return or panic as its final statement).
func blockDiverts(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
