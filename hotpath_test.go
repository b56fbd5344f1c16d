package dice

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// hotPath lists, per source file, the functions that run once per event or
// once per window on the ingest path every front shares (IngestBatch →
// ingestLocked → Builder.Add → Detector.Process). A method is named
// "Type.Method".
var hotPath = map[string][]string{
	"internal/window/window.go":   {"Builder.Add", "Builder.fold"},
	"internal/gateway/gateway.go": {"CheckOrder", "Gateway.ingestLocked", "Gateway.processLocked"},
	"internal/core/detector.go":   {"Detector.Process"},
}

// clockReaders are the only functions in the hot-path files allowed to
// read the wall clock: the detector's stage timer, which reads it on
// sampled windows only.
var clockReaders = map[string][]string{
	"internal/core/detector.go": {"stageClock.start", "stageClock.lap"},
}

// funcName returns "Type.Method" for a method and the plain name otherwise.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// clockCall reports whether n is a direct time.Now or time.Since call.
func clockCall(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since")
}

// mapBuild reports whether n is a map literal or a make(map...) call.
func mapBuild(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CompositeLit:
		_, ok := n.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		fn, ok := n.Fun.(*ast.Ident)
		if !ok || fn.Name != "make" || len(n.Args) == 0 {
			return false
		}
		_, ok = n.Args[0].(*ast.MapType)
		return ok
	}
	return false
}

// TestHotPathNoClockNoMap parses the ingest path's sources and requires
// that no per-event or per-window function reads the clock directly or
// builds a map, and that the stage timer is the only clock reader in
// those files: a clock read there costs tens of nanoseconds on every
// window, and a map built there allocates on every one.
func TestHotPathNoClockNoMap(t *testing.T) {
	fset := token.NewFileSet()
	for file, funcs := range hotPath {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, readers := map[string]bool{}, map[string]bool{}
		for _, name := range funcs {
			want[name] = true
		}
		for _, name := range clockReaders[file] {
			readers[name] = true
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := funcName(fd)
			hot, reader := want[name], readers[name]
			delete(want, name)
			delete(readers, name)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch {
				case clockCall(n) && !reader:
					t.Errorf("%s: %s reads the clock directly", fset.Position(n.Pos()), name)
				case hot && mapBuild(n):
					t.Errorf("%s: %s builds a map on the hot path", fset.Position(n.Pos()), name)
				}
				return true
			})
		}
		for name := range want {
			t.Errorf("%s: hot-path function %s not found", file, name)
		}
		for name := range readers {
			t.Errorf("%s: clock reader %s not found", file, name)
		}
	}
}
