package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked, non-test package of the
// module under analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/core"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	ignores       map[string]map[int][]suppression // filename -> comment line -> directives
	badDirectives []Diagnostic
}

// LoadModule parses and type-checks every non-test package of the Go
// module rooted at root (the directory containing go.mod), resolving
// standard-library imports from source so the loader needs nothing
// beyond the Go toolchain's GOROOT. Test files and testdata trees are
// skipped. The returned packages share one FileSet and are sorted by
// import path.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	byPath := make(map[string]*Package)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := parseDir(fset, dir, path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			byPath[path] = pkg
		}
	}

	order, err := topoSort(byPath)
	if err != nil {
		return nil, err
	}

	// Standard-library imports are type-checked from GOROOT source;
	// module-internal imports resolve to the packages checked earlier
	// in dependency order.
	std := importer.ForCompiler(fset, "source", nil)
	checked := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		if strings.HasPrefix(path, modPath+"/") || path == modPath {
			return nil, fmt.Errorf("module package %s not loaded (import cycle?)", path)
		}
		return std.Import(path)
	})
	for _, pkg := range order {
		conf := types.Config{Importer: imp}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", pkg.Path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		checked[pkg.Path] = tpkg
	}

	sort.Slice(order, func(i, j int) bool { return order[i].Path < order[j].Path })
	return order, nil
}

// checkSourceState is the FileSet and standard-library source
// importer every CheckSource call shares: the importer caches each
// package it type-checks, so the stdlib is checked once per process
// rather than once per fixture. The source importer is not safe for
// concurrent use, hence the mutex.
var checkSourceState struct {
	sync.Mutex
	fset *token.FileSet
	std  types.Importer
}

// CheckSource parses and type-checks a single in-memory file as a
// package with the given import path — the fixture loader used by the
// analyzer tests. Imports resolve from standard-library source only.
func CheckSource(path, filename, src string) (*Package, error) {
	st := &checkSourceState
	st.Lock()
	defer st.Unlock()
	if st.fset == nil {
		st.fset = token.NewFileSet()
		st.std = importer.ForCompiler(st.fset, "source", nil)
	}
	fset := st.fset
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: st.std}
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:  path,
		Fset:  fset,
		Files: []*ast.File{f},
		Types: tpkg,
		Info:  info,
	}
	pkg.indexSuppressions()
	return pkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// packageDirs walks root collecting directories that contain at least
// one non-test .go file, skipping testdata, vendor, VCS and hidden
// trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test .go files of one directory. Returns
// nil if the directory holds no buildable files.
func parseDir(fset *token.FileSet, dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Fset: fset}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if fileExcludedByBuildTags(f) {
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	pkg.indexSuppressions()
	return pkg, nil
}

// fileExcludedByBuildTags reports whether a //go:build line above the
// package clause excludes the file from the build the analyzers
// model: the default `go build` on the host OS/arch, with no special
// tags. Without this, a tag-disjoint pair of files (e.g. a constant
// declared once under `//go:build race` and once under `!race`) looks
// like a redeclaration to the type checker. Legacy // +build lines
// are not consulted; the module uses the go:build form only.
func fileExcludedByBuildTags(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(defaultBuildTag) {
				return true
			}
		}
	}
	return false
}

// defaultBuildTag says which tags the modeled build satisfies: host
// OS and architecture, the gc toolchain, the unix umbrella where it
// applies, and every go1.x language-version gate. Everything else —
// race, integration tags, foreign platforms — is unset.
func defaultBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "aix":
			return true
		}
		return false
	}
	return strings.HasPrefix(tag, "go1.")
}

func (p *Package) indexSuppressions() {
	p.ignores = make(map[string]map[int][]suppression)
	for _, f := range p.Files {
		byLine, bad := parseSuppressions(p.Fset, f)
		p.badDirectives = append(p.badDirectives, bad...)
		if len(byLine) > 0 {
			p.ignores[p.Fset.Position(f.Pos()).Filename] = byLine
		}
	}
}

// topoSort orders packages so every module-internal dependency
// precedes its importer.
func topoSort(byPath map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int)
	var order []*Package
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("import cycle: %s", strings.Join(append(chain, path), " -> "))
		}
		state[path] = visiting
		pkg := byPath[path]
		var deps []string
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				dep, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := byPath[dep]; ok {
					deps = append(deps, dep)
				}
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}
