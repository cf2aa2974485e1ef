package repro

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameLiveSymbols keeps the prose from naming code that no
// longer exists. Every back-ticked `pkg.Name` or `Type.Member` token in
// README.md, DESIGN.md, EXPERIMENTS.md and ROADMAP.md must resolve to one of: a
// declaration in the tree (test files included), a declaration of a
// standard-library package the tree imports, a Go string literal (such
// as a counter name), a metric name in BENCHMARK.json, or the name of a
// file in the tree. A back-ticked repository path (under internal/ or
// scripts/, or naming a .go or .json file) must exist, or be a package
// directory followed by one of its declarations; a back-ticked
// `make target` must name a Makefile target.
func TestDocsNameLiveSymbols(t *testing.T) {
	idx := newSymbolIndex(t)
	targets := makeTargets(t)
	span := regexp.MustCompile("`([^`\n]+)`")
	tok := regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\(\))?$`)
	path := regexp.MustCompile(`^(?:(?:internal|scripts)/[A-Za-z0-9_./-]*|[A-Za-z0-9_./-]+\.(?:go|json))$`)
	pkgSym := regexp.MustCompile(`^(.+/[a-z0-9]+)\.([A-Za-z_][A-Za-z0-9_]*)$`)
	mk := regexp.MustCompile(`^make ([A-Za-z0-9_-]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, s := range span.FindAllStringSubmatch(line, -1) {
				var ok bool
				if m := tok.FindStringSubmatch(s[1]); m != nil {
					ok = idx.resolves(t, m[1], m[2])
				} else if path.MatchString(s[1]) {
					ok = exists(s[1]) || !strings.Contains(s[1], "/") && idx.names[s[1]]
					if m := pkgSym.FindStringSubmatch(s[1]); !ok && m != nil {
						ok = exists(m[1]) && idx.resolves(t, filepath.Base(m[1]), m[2])
					}
				} else if m := mk.FindStringSubmatch(s[1]); m != nil {
					ok = targets[m[1]]
				} else {
					continue
				}
				if !ok {
					t.Errorf("%s:%d: `%s` names nothing in the tree", doc, i+1, s[1])
				}
			}
		}
	}
}

// designCeiling is DESIGN.md's size in bytes when its fold-table
// paragraphs were cut. A change that shrinks DESIGN.md lowers it to the
// new size; none raises it.
const designCeiling = 95642

// TestDesignSizeCeiling keeps DESIGN.md from growing: a change that adds
// to it cuts at least as much elsewhere.
func TestDesignSizeCeiling(t *testing.T) {
	info, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > designCeiling {
		t.Errorf("DESIGN.md is %d bytes, past its ceiling of %d: cut as much as is added", info.Size(), designCeiling)
	}
}

// exists reports whether a path relative to the repository root exists.
func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// makeTargets is the set of targets the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rule := regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	targets := make(map[string]bool)
	for _, m := range rule.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	return targets
}

// symbolIndex is every name a doc token may resolve to.
type symbolIndex struct {
	fset    *token.FileSet
	names   map[string]bool   // "pkg.Name", "Type.Member", string literals, metrics, file names
	aliases map[string]string // alias type name → aliased type name
	stdlib  map[string]string // package name → import path, for standard-library imports
	parsed  map[string]bool   // standard-library packages already indexed
}

func newSymbolIndex(t *testing.T) *symbolIndex {
	idx := &symbolIndex{
		fset:    token.NewFileSet(),
		names:   make(map[string]bool),
		aliases: make(map[string]string),
		stdlib:  make(map[string]string),
		parsed:  make(map[string]bool),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		idx.names[d.Name()] = true
		if strings.HasSuffix(path, ".go") {
			f, err := parser.ParseFile(idx.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			idx.addFile(f, true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		idx.names[m.Name] = true
	}
	return idx
}

// addFile indexes one parsed file's declarations; tree files also
// contribute their string literals and standard-library imports.
func (idx *symbolIndex) addFile(f *ast.File, tree bool) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				idx.names[pkg+"."+d.Name.Name] = true
			} else {
				idx.names[recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						idx.names[pkg+"."+n.Name] = true
					}
				case *ast.TypeSpec:
					idx.names[pkg+"."+s.Name.Name] = true
					if s.Assign.IsValid() {
						idx.aliases[s.Name.Name] = recvName(s.Type)
					}
					idx.addMembers(s.Name.Name, s.Type)
				}
			}
		}
	}
	if !tree {
		return
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if first, _, _ := strings.Cut(path, "/"); !strings.Contains(first, ".") && first != "repro" {
			idx.stdlib[path[strings.LastIndex(path, "/")+1:]] = path
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				idx.names[s] = true
			}
		}
		return true
	})
}

// addMembers indexes a struct type's fields (embedded ones by type
// name) or an interface type's methods as "Type.Member".
func (idx *symbolIndex) addMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch x := expr.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, fld := range fields.List {
		if len(fld.Names) == 0 {
			idx.names[typ+"."+recvName(fld.Type)] = true
		}
		for _, n := range fld.Names {
			idx.names[typ+"."+n.Name] = true
		}
	}
}

// recvName is the bare type name of a receiver or embedded field:
// pointers, package qualifiers and type parameters stripped.
func recvName(expr ast.Expr) string {
	switch x := expr.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// resolves reports whether x.y names something, looking through type
// aliases and indexing the standard-library package x on first use.
func (idx *symbolIndex) resolves(t *testing.T, x, y string) bool {
	if idx.names[x+"."+y] || idx.names[idx.aliases[x]+"."+y] {
		return true
	}
	path, ok := idx.stdlib[x]
	if !ok || idx.parsed[path] {
		return false
	}
	idx.parsed[path] = true
	p, err := build.Import(path, "", build.FindOnly)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(p.Dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(idx.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		idx.addFile(f, false)
	}
	return idx.names[x+"."+y]
}
