package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cadmc/internal/analysis/cfg"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path (module-relative packages get the module
	// prefix, e.g. cadmc/internal/nn).
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// cfgs caches per-function control-flow graphs, shared by every
	// flow-sensitive analyzer pass over this package (see Pass.CFG).
	// Construction is race-free by phase structure: the export phase runs
	// serially, and each package's diagnostic passes run inside a single
	// worker.
	cfgs map[*ast.BlockStmt]*cfg.Graph
}

// Loader parses and type-checks packages of one module without any
// dependency on golang.org/x/tools. Imports inside the module are resolved
// recursively from source; every other import (the stdlib — the module has
// no external requirements) is delegated to go/importer's source importer.
type Loader struct {
	root   string // absolute module root directory
	module string // module path from go.mod
	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*loadEntry
	// order records module packages in load-completion order. A package's
	// imports finish loading before the package itself does, so this is a
	// topological (dependency-first) order — exactly the order fact-export
	// passes must visit packages in.
	order []*Package
}

type loadEntry struct {
	pkg *Package
	err error
}

// NewLoader builds a loader for the module rooted at dir (the directory
// containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolve module root: %w", err)
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  make(map[string]*loadEntry),
	}, nil
}

// Root returns the absolute module root directory.
func (l *Loader) Root() string { return l.root }

// Module returns the module path declared in go.mod.
func (l *Loader) Module() string { return l.module }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Import implements types.Importer: module-internal paths load from source,
// everything else falls through to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at the given module import path.
// Test files (_test.go) are excluded: the analyzers guard shipped code, and
// tests legitimately use exact comparisons and local RNGs.
func (l *Loader) Load(path string) (*Package, error) {
	if entry, ok := l.cache[path]; ok {
		return entry.pkg, entry.err
	}
	// Seed the cache to fail fast on import cycles instead of recursing.
	l.cache[path] = &loadEntry{err: fmt.Errorf("analysis: import cycle through %q", path)}
	pkg, err := l.load(path)
	l.cache[path] = &loadEntry{pkg: pkg, err: err}
	if err == nil {
		l.order = append(l.order, pkg)
	}
	return pkg, err
}

// Loaded returns every successfully loaded module package in dependency
// order: a package appears after all module packages it imports.
func (l *Loader) Loaded() []*Package {
	return append([]*Package(nil), l.order...)
}

func (l *Loader) load(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// goSourceFiles lists the non-test Go files of dir that the go tool would
// build for the current GOOS/GOARCH — `//go:build` lines and _GOOS/_GOARCH
// file-name suffixes honoured — in stable order.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: read dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: build constraints: %w", err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves package patterns against the module root. Supported forms
// are "./..." (every package under root), "dir/..." (every package under
// dir) and plain relative directories; "testdata" and hidden directories are
// skipped. The result is a sorted list of import paths.
func Expand(root string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	add := func(dir string) error {
		names, err := goSourceFiles(dir)
		if err != nil || len(names) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return fmt.Errorf("analysis: relativise %s: %w", dir, err)
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		seen[path] = true
		return nil
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" || base == "." {
			base = root
		} else {
			base = filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(base, "./")))
		}
		if !recursive {
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: expand %q: %w", pat, err)
		}
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths, nil
}
