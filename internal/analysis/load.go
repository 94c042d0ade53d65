package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the full import path ("repro/internal/tsim").
	Path string
	// Rel is the module-relative directory ("" for the module root).
	Rel   string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the loaded, type-checked module.
type Module struct {
	Root string // absolute directory containing go.mod
	Path string // module path from go.mod
	Fset *token.FileSet
	// Pkgs is sorted by import path.
	Pkgs []*Package
}

// LoadModule parses and type-checks every non-test package under root
// (the directory holding go.mod) using only the standard library: module
// packages are resolved from the parsed set, everything else is treated
// as standard library and type-checked from GOROOT source. Test files,
// testdata, vendor and nested modules are skipped — the linter's subject
// is the code that ships.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	pkgs := make(map[string]*Package) // by import path
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, statErr := os.Stat(filepath.Join(path, "go.mod")); statErr == nil {
				return filepath.SkipDir // nested module
			}
		}
		files, err := parseDir(fset, root, path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		imp := modPath
		if rel != "" {
			imp = modPath + "/" + rel
		}
		pkgs[imp] = &Package{Path: imp, Rel: rel, Dir: path, Files: files}
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := &Module{Root: root, Path: modPath, Fset: fset}
	checker := &moduleChecker{
		fset:    fset,
		modPath: modPath,
		pkgs:    pkgs,
		std:     importer.ForCompiler(fset, "source", nil),
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := checker.check(p, nil); err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkgs[p])
	}
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module line in %s", gomod)
}

// parseDir parses the non-test .go files of one directory. File names are
// recorded module-relative so every diagnostic position is stable no
// matter where the driver runs from.
func parseDir(fset *token.FileSet, root, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, filepath.ToSlash(rel), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleChecker type-checks module packages in dependency order, routing
// intra-module imports to the checked set and everything else to the
// standard-library source importer.
type moduleChecker struct {
	fset    *token.FileSet
	modPath string
	pkgs    map[string]*Package
	std     types.Importer
	stack   []string
}

// Import implements types.Importer for the packages the module imports.
func (c *moduleChecker) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		if err := c.check(path, nil); err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return c.std.Import(path)
}

// check type-checks one module package (idempotent, cycle-safe).
func (c *moduleChecker) check(path string, _ []string) error {
	p := c.pkgs[path]
	if p.Types != nil {
		return nil
	}
	for _, on := range c.stack {
		if on == path {
			return fmt.Errorf("import cycle through %s", path)
		}
	}
	c.stack = append(c.stack, path)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer: c,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, c.fset, p.Files, info)
	if firstErr != nil {
		return fmt.Errorf("type-checking %s: %v", path, firstErr)
	}
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", path, err)
	}
	p.Types = tpkg
	p.Info = info
	return nil
}
