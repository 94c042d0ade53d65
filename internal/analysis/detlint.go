package analysis

import (
	"go/ast"
	"go/types"
)

// detlint guards the determinism contract of the packages whose output is
// golden-compared or asserted byte-identical across -j/-parallel runs
// (PR 2/3): no wall-clock reads, no global math/rand source, and no
// output emitted while ranging over a map (iteration order is random; the
// established pattern is collect keys, sort, then iterate the slice).
type detlint struct{}

func (detlint) name() string { return "detlint" }

// detPackages are the module-relative packages that produce golden or
// byte-compared output.
var detPackages = []string{
	"internal/stats",
	"internal/figures",
	"internal/run",
	"internal/check",
	"internal/obs",
	"internal/prov",
	"cmd/emccsim",
}

// globalRandFuncs are the math/rand (and v2) package-level functions that
// draw from the shared global source. Constructors like New, NewSource
// and NewZipf build independently seeded generators and stay legal.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"IntN": true, "N": true, "Uint32N": true, "Uint64N": true, "Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func (detlint) run(ctx *context, pkg *Package) {
	target := false
	for _, rel := range detPackages {
		if pathIs(pkg.Path, rel) {
			target = true
			break
		}
	}
	if !target {
		return
	}
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				obj, ok := info.Uses[n.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if obj.Name() == "Now" {
						ctx.reportf("detlint", n.Pos(),
							"time.Now in a deterministic-output package (golden/compared output must not depend on wall time)")
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[obj.Name()] && isPackageLevel(obj) {
						ctx.reportf("detlint", n.Pos(),
							"package-level math/rand draws from the global source; use a locally seeded *rand.Rand")
					}
				}
			case *ast.RangeStmt:
				if !isMapRange(info, n) {
					return true
				}
				if out := firstOutputCall(info, n.Body); out != nil {
					ctx.reportf("detlint", n.Pos(),
						"iteration over a map reaches output (%s at line %d) without an intervening sort; collect and sort the keys first",
						outputCallName(out), ctx.mod.Fset.Position(out.Pos()).Line)
				} else if out := nestedMapRangeOutput(info, n.Body); out != nil {
					// The body's only output sits inside a nested map
					// range. That inner range gets its own finding, but
					// the outer order leaks through it just the same —
					// report both, so suppressing the inner one cannot
					// silently bless the outer (ROADMAP refinement).
					ctx.reportf("detlint", n.Pos(),
						"iteration over a map reaches output (%s at line %d) only through a nested map iteration; the outer order is nondeterministic too — sort the keys at every level",
						outputCallName(out), ctx.mod.Fset.Position(out.Pos()).Line)
				}
			}
			return true
		})
	}
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// isMapRange reports whether the range statement iterates a map.
func isMapRange(info *types.Info, r *ast.RangeStmt) bool {
	tv, ok := info.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// firstOutputCall finds a call in body that emits formatted output: the
// fmt print family writing to a stream, or a Write* method (io.Writer,
// strings.Builder, bytes.Buffer, ...). Nested map ranges are skipped —
// they are reported on their own.
func firstOutputCall(info *types.Info, body *ast.BlockStmt) (found *ast.CallExpr) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if r, ok := n.(*ast.RangeStmt); ok && isMapRange(info, r) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isOutputCall(info, call) {
			found = call
			return false
		}
		return true
	})
	return found
}

// nestedMapRangeOutput finds an output call that firstOutputCall skipped
// because it sits inside a nested map range: the first such call under any
// directly nested map iteration, however deep.
func nestedMapRangeOutput(info *types.Info, body *ast.BlockStmt) (found *ast.CallExpr) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if r, ok := n.(*ast.RangeStmt); ok && isMapRange(info, r) {
			found = anyOutputCall(info, r.Body)
			return false
		}
		return true
	})
	return found
}

// anyOutputCall finds the first output call anywhere in body, without the
// nested-map-range exclusion of firstOutputCall.
func anyOutputCall(info *types.Info, body *ast.BlockStmt) (found *ast.CallExpr) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isOutputCall(info, call) {
			found = call
			return false
		}
		return true
	})
	return found
}

// outputWriteMethods are method names that append to an output sink.
var outputWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// fmtPrintFuncs are the fmt functions that emit to a stream. The Sprint
// family builds values instead of emitting, so it is not flagged on its
// own — a sorted emit site downstream is still enforced wherever the
// built string is printed.
var fmtPrintFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && fmtPrintFuncs[obj.Name()] {
		return true
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && outputWriteMethods[obj.Name()] {
		return true
	}
	return false
}

// outputCallName renders the callee for the diagnostic.
func outputCallName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	return "call"
}
