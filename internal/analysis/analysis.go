// Package analysis is the project's static-analysis driver (cmd/lint): a
// standard-library-only (go/parser, go/types — no x/tools) framework that
// type-checks every package in the module and runs the project-specific
// passes enforcing the conventions the evaluation stack rests on:
//
//   - statskey: every name passed to a stats.Set / stats.Snapshot metric
//     method must resolve at compile time to a constant registered in
//     internal/stats/keys.go (typo'd keys silently compare zeros in the
//     differential harness). Dynamic key families are opted out per call
//     site with //lint:dynamic-key.
//   - detlint: packages that produce golden or byte-compared output must
//     not consult wall time (time.Now), the global math/rand source, or
//     emit output while iterating a map (iteration order is random).
//   - invgate: (*inv.Recorder).Failf / Fail call sites must be dominated
//     by an On() check so production runs pay one branch per site.
//
// Findings print as "file:line: [pass] message" and any finding makes the
// driver exit non-zero. A finding is suppressed by a
// "//lint:ignore <pass> <reason>" comment on the same line or the line
// above.
package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by a pass.
type Finding struct {
	// File is the module-relative path of the offending file.
	File string
	// Line is the 1-based line of the offending node.
	Line int
	// Pass names the pass that produced the finding.
	Pass string
	// Msg describes the violation.
	Msg string
}

// String renders the canonical "file:line: [pass] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Pass, f.Msg)
}

// Ref is one source reference to a registered stats key.
type Ref struct {
	File string
	Line int
}

// Result is the outcome of one driver run.
type Result struct {
	// Findings is sorted by file, line, pass; suppressed findings are
	// already removed.
	Findings []Finding
	// Keys lists the registered stats keys discovered in
	// internal/stats/keys.go, sorted, one entry per declared constant (so
	// a value declared twice is listed twice).
	Keys []string
	// KeyIndex maps each registered key to its references outside the
	// stats package: uses of the registry constant anywhere, plus
	// constant key arguments at metric call sites. A registered key with
	// no references is an orphan (see keys_test.go).
	KeyIndex map[string][]Ref
}

// pass is one analysis over a single package, with module-wide context.
type pass interface {
	name() string
	run(ctx *context, pkg *Package)
}

// per-package passes in reporting order.
func allPasses() []pass {
	return []pass{statskey{}, detlint{}, invgate{}}
}

// Passes lists the pass names the driver runs, in order.
func Passes() []string {
	var names []string
	for _, p := range allPasses() {
		names = append(names, p.name())
	}
	return names
}

// context carries module-wide state shared by the passes.
type context struct {
	mod *Module

	// registry: key value -> declaration position; keyConsts: the
	// *types.Const objects declared in keys.go, for use-indexing.
	registry  map[string]token.Position
	keyConsts map[types.Object]string
	statsPkg  *Package

	// suppress: file -> line -> pass name -> the marker granting the
	// suppression (tracked so markers that never fire become findings).
	suppress map[string]map[int]map[string]*ignoreMarker
	// markers lists every well-formed //lint:ignore marker in collection
	// order, for the unused-suppression audit after all passes ran.
	markers []*ignoreMarker
	// dynamicKey: file -> lines annotated //lint:dynamic-key.
	dynamicKey map[string]map[int]bool

	// patterns is the package selection for this run; findings are only
	// reported for matching packages.
	patterns []string

	findings []Finding
	keyIndex map[string][]Ref
}

// ignoreMarker is one well-formed //lint:ignore <pass> <reason> comment.
type ignoreMarker struct {
	file string // module-relative file of the marker
	line int
	pass string
	rel  string // module-relative package dir, for pattern filtering
	used bool   // set when the marker suppresses at least one finding
}

// reportf records a finding at pos unless suppressed.
func (ctx *context) reportf(pass string, pos token.Pos, format string, args ...interface{}) {
	p := ctx.mod.Fset.Position(pos)
	if lines := ctx.suppress[p.Filename]; lines != nil {
		if m := lines[p.Line][pass]; m != nil {
			m.used = true
			return
		}
		if m := lines[p.Line-1][pass]; m != nil {
			m.used = true
			return
		}
	}
	ctx.findings = append(ctx.findings, Finding{
		File: p.Filename, Line: p.Line, Pass: pass, Msg: fmt.Sprintf(format, args...),
	})
}

// dynamicKeyAllowed reports whether pos sits on (or just under) a
// //lint:dynamic-key annotation.
func (ctx *context) dynamicKeyAllowed(pos token.Pos) bool {
	p := ctx.mod.Fset.Position(pos)
	lines := ctx.dynamicKey[p.Filename]
	return lines != nil && (lines[p.Line] || lines[p.Line-1])
}

// addKeyRef records one reference to a registered key.
func (ctx *context) addKeyRef(key string, pos token.Pos) {
	p := ctx.mod.Fset.Position(pos)
	ctx.keyIndex[key] = append(ctx.keyIndex[key], Ref{File: p.Filename, Line: p.Line})
}

// pathIs reports whether the import path is the module-relative package
// rel (e.g. "internal/stats"), in this module or any fixture module.
func pathIs(importPath, rel string) bool {
	return importPath == rel || strings.HasSuffix(importPath, "/"+rel)
}

// Run loads the module rooted at root (its go.mod directory), runs every
// pass over the packages selected by patterns ("./..." when empty) and
// returns the surviving findings plus the stats-key index. An error means
// the module could not be loaded or type-checked — findings are the
// linter's output, errors are the driver's failure.
func Run(root string, patterns ...string) (*Result, error) {
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ctx := &context{
		mod:        mod,
		patterns:   patterns,
		registry:   make(map[string]token.Position),
		keyConsts:  make(map[types.Object]string),
		suppress:   make(map[string]map[int]map[string]*ignoreMarker),
		dynamicKey: make(map[string]map[int]bool),
		keyIndex:   make(map[string][]Ref),
	}
	ctx.collectAnnotations()
	ctx.collectRegistry()
	ctx.indexKeyUses()

	for _, pkg := range mod.Pkgs {
		if !matchAny(pkg.Rel, patterns) {
			continue
		}
		for _, p := range allPasses() {
			p.run(ctx, pkg)
		}
	}
	ctx.auditSuppressions()

	sort.Slice(ctx.findings, func(i, j int) bool {
		a, b := ctx.findings[i], ctx.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	res := &Result{Findings: ctx.findings, KeyIndex: ctx.keyIndex}
	for _, k := range ctx.keyConsts {
		res.Keys = append(res.Keys, k)
	}
	sort.Strings(res.Keys)
	return res, nil
}

// matchAny reports whether the module-relative package dir matches any
// pattern. Supported forms: "./..." (everything), "./dir/..." (subtree),
// "./dir" (exact), with or without the leading "./".
func matchAny(rel string, patterns []string) bool {
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		pat = strings.TrimSuffix(pat, "/")
		switch {
		case pat == "..." || pat == "":
			return true
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			if rel == base || strings.HasPrefix(rel, base+"/") {
				return true
			}
		case rel == pat:
			return true
		}
	}
	return false
}

// collectAnnotations scans every comment for //lint:ignore and
// //lint:dynamic-key markers. A marker covers its own line and the next
// one, so both end-of-line and stand-alone placements work.
func (ctx *context) collectAnnotations() {
	for _, pkg := range ctx.mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					switch {
					case strings.HasPrefix(text, "lint:ignore"):
						ctx.addIgnore(pkg, c, strings.TrimPrefix(text, "lint:ignore"))
					case strings.HasPrefix(text, "lint:dynamic-key"):
						p := ctx.mod.Fset.Position(c.Pos())
						lines := ctx.dynamicKey[p.Filename]
						if lines == nil {
							lines = make(map[int]bool)
							ctx.dynamicKey[p.Filename] = lines
						}
						lines[p.Line] = true
					}
				}
			}
		}
	}
}

// addIgnore parses the "<pass> <reason>" tail of a //lint:ignore comment.
// A malformed marker is itself a finding (in pattern-selected packages):
// a suppression without a pass and a reason suppresses nothing and
// documents nothing.
func (ctx *context) addIgnore(pkg *Package, c *ast.Comment, rest string) {
	fields := strings.Fields(rest)
	p := ctx.mod.Fset.Position(c.Pos())
	if len(fields) < 2 {
		if matchAny(pkg.Rel, ctx.patterns) {
			ctx.findings = append(ctx.findings, Finding{
				File: p.Filename, Line: p.Line, Pass: "lint",
				Msg: "malformed suppression: want //lint:ignore <pass> <reason>",
			})
		}
		return
	}
	lines := ctx.suppress[p.Filename]
	if lines == nil {
		lines = make(map[int]map[string]*ignoreMarker)
		ctx.suppress[p.Filename] = lines
	}
	if lines[p.Line] == nil {
		lines[p.Line] = make(map[string]*ignoreMarker)
	}
	m := &ignoreMarker{file: p.Filename, line: p.Line, pass: fields[0], rel: pkg.Rel}
	lines[p.Line][fields[0]] = m
	ctx.markers = append(ctx.markers, m)
}

// auditSuppressions reports every well-formed marker that suppressed
// nothing: a stale suppression hides future regressions and documents a
// violation that no longer exists. Runs after every pass has finished.
func (ctx *context) auditSuppressions() {
	for _, m := range ctx.markers {
		if m.used || !matchAny(m.rel, ctx.patterns) {
			continue
		}
		ctx.findings = append(ctx.findings, Finding{
			File: m.file, Line: m.line, Pass: "lint",
			Msg: fmt.Sprintf("unused suppression: no %s finding here — remove the //lint:ignore or restore the violation it documented", m.pass),
		})
	}
}

// collectRegistry reads the stats-key registry: every string constant
// declared in keys.go of the module's internal/stats package.
func (ctx *context) collectRegistry() {
	for _, pkg := range ctx.mod.Pkgs {
		if !pathIs(pkg.Path, "internal/stats") {
			continue
		}
		ctx.statsPkg = pkg
		for _, f := range pkg.Files {
			pos := ctx.mod.Fset.Position(f.Pos())
			if !strings.HasSuffix(pos.Filename, "keys.go") {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						obj, ok := pkg.Info.Defs[name].(*types.Const)
						if !ok || obj.Val().Kind() != constant.String {
							continue
						}
						key := constant.StringVal(obj.Val())
						ctx.registry[key] = ctx.mod.Fset.Position(name.Pos())
						ctx.keyConsts[obj] = key
					}
				}
			}
		}
		return
	}
}

// indexKeyUses records every use of a registry constant outside the
// stats package itself (the registry slice in keys.go must not count as
// a reference, or orphaned keys could never be detected).
func (ctx *context) indexKeyUses() {
	for _, pkg := range ctx.mod.Pkgs {
		if pkg == ctx.statsPkg {
			continue
		}
		for id, obj := range pkg.Info.Uses {
			if key, ok := ctx.keyConsts[obj]; ok {
				ctx.addKeyRef(key, id.Pos())
			}
		}
	}
}

// walkStack traverses every file of pkg, calling fn with each node and
// the stack of its ancestors (outermost first, not including n).
func walkStack(pkg *Package, fn func(n ast.Node, stack []ast.Node)) {
	for _, f := range pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}

// funcObj resolves the called function/method object of a call, through
// package qualifiers and method selections alike. Returns nil for calls
// of function-typed values.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
