package amulet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/sith-lab/amulet-go"

// deadExportAllow lists the exported names under internal/ and cmd/ that
// TestNoDeadExports accepts without a use in non-test code, one reason each.
// Keys are "<dir>.<Name>" for package-level names, "<dir>.<Type>.<Method>"
// for methods, and a bare "<dir>" for a whole test-support package.
var deadExportAllow = map[string]string{
	// Test-support packages: shipped code only nil-checks or never imports
	// them, and their API is called from other packages' tests.
	"internal/faultinject": "fault-injection harness driven by the engine, checkpoint and dist tests",
	"internal/testgadget":  "gadget builders for the defense and uarch tests (examples use a subset)",

	// Quarantine repro bundles: the README documents replaying a bundle with
	// these for debugging; the durability tests exercise the round trip.
	"internal/checkpoint.BundlePath": "locates a quarantine bundle to load (README, repro bundles)",
	"internal/checkpoint.LoadBundle": "reads a quarantine bundle for engine.ReplayUnit (README, repro bundles)",
	"internal/engine.ReplayUnit":     "re-runs a quarantined unit standalone (README, repro bundles)",

	// Used by other packages' tests, which cannot see an export_test.go.
	"internal/contract.Usage.Loaded":  "per-byte membership for the generator's dense mutation oracle",
	"internal/emu.New":                "builds the reference machine in the uarch and wasm equivalence tests",
	"internal/isa.NewSlab":            "standalone slab for the generator's input tests",
	"internal/isa.Slab.Carved":        "slab storage bound the fuzzer's model-stt footprint test asserts",
	"internal/isa.Image.Materialized": "page count the executor's copy-on-write tests assert",
	"internal/uarch.Core.Image":       "committed memory, compared against the emulator by executor and uarch tests",
	"internal/uarch.Coverage.Empty":   "coverage assertions in the engine and executor tests",
}

// TestNoDeadExports fails on an exported func, method, type, const or var
// under internal/ or cmd/ whose name is not used by any non-test code
// (internal/, cmd/, bench/ and examples/) outside its own declaration.
// Test-only helpers belong in the owning package's export_test.go; an
// export kept on purpose goes on deadExportAllow with its reason.
//
// The check is by name, not by type: a package-level name counts as used
// when its own package mentions it unqualified or another file selects it
// through an import, and a method when any selector anywhere carries its
// name. A name shared with something live therefore passes, so the test can
// miss a dead export. It flags a live one only when nothing names it, such
// as a method called solely through a standard-library interface; that one
// goes on deadExportAllow.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type srcFile struct {
		dir string // slash-separated, relative to the module root
		f   *ast.File
	}
	var files []srcFile
	pkgName := map[string]string{} // dir → package name
	for _, root := range []string{"internal", "cmd", "bench", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			files = append(files, srcFile{dir, f})
			pkgName[dir] = f.Name.Name
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	type export struct {
		dir, key, name string
		method         bool
		decl           ast.Node // the whole declaration: uses inside it do not count
	}
	var exports []export
	pkgUses := map[string][]token.Pos{}    // "<dir>.<Name>" → uses
	methodUses := map[string][]token.Pos{} // method name → selector uses
	for _, sf := range files {
		declares := strings.HasPrefix(sf.dir, "internal/") || strings.HasPrefix(sf.dir, "cmd/")
		// skip holds identifiers that are not references to a package-level
		// name of this package: selector right-hand sides and receiver types.
		skip := map[*ast.Ident]bool{}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
				if !declares || !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					exports = append(exports, export{dir: sf.dir, key: sf.dir + "." + d.Name.Name, name: d.Name.Name, decl: d})
				} else {
					exports = append(exports, export{dir: sf.dir, key: sf.dir + "." + recvTypeName(d.Recv) + "." + d.Name.Name,
						name: d.Name.Name, method: true, decl: d})
				}
			case *ast.GenDecl:
				if !declares {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exports = append(exports, export{dir: sf.dir, key: sf.dir + "." + s.Name.Name, name: s.Name.Name, decl: s})
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								exports = append(exports, export{dir: sf.dir, key: sf.dir + "." + id.Name, name: id.Name, decl: s})
							}
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name → imported module dir
		for _, is := range sf.f.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			dir, ok := strings.CutPrefix(path, modulePath+"/")
			if !ok {
				continue
			}
			name := pkgName[dir]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						pkgUses[dir+"."+n.Sel.Name] = append(pkgUses[dir+"."+n.Sel.Name], n.Sel.Pos())
						return true
					}
				}
				methodUses[n.Sel.Name] = append(methodUses[n.Sel.Name], n.Sel.Pos())
			case *ast.Ident:
				if !skip[n] {
					pkgUses[sf.dir+"."+n.Name] = append(pkgUses[sf.dir+"."+n.Name], n.Pos())
				}
			}
			return true
		})
	}

	var dead []string
	for _, e := range exports {
		uses := pkgUses[e.key]
		if e.method {
			uses = methodUses[e.name]
		}
		used := slices.ContainsFunc(uses, func(p token.Pos) bool { return p < e.decl.Pos() || p >= e.decl.End() })
		allowed := deadExportAllow[e.key] != "" || deadExportAllow[e.dir] != ""
		if used && deadExportAllow[e.key] != "" {
			t.Errorf("%s is on deadExportAllow but is used: drop the entry", e.key)
		}
		if !used && !allowed {
			dead = append(dead, e.key+" ("+fset.Position(e.decl.Pos()).String()+")")
		}
	}
	for key := range deadExportAllow {
		if !slices.ContainsFunc(exports, func(e export) bool { return e.key == key || e.dir == key }) {
			t.Errorf("deadExportAllow names %s, which is not declared: drop the entry", key)
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("exported but unused outside tests: %s", d)
	}
}

// recvTypeName returns the receiver's base type name (T for T, *T, T[P]).
func recvTypeName(recv *ast.FieldList) string {
	x := recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
