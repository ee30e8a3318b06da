package roboads_test

// The public API golden: every exported name of the two public packages
// (roboads and roboads/client) with its type or signature, plus the
// exported fields and methods of every roboads/... named type those
// names reach through aliases, fields, parameters and results. A field
// renamed or retyped deep inside an internal package breaks a
// downstream caller as surely as a deleted root name, so both show up
// here as a diff.
//
// Re-record after a deliberate API change, and read the diff:
//
//	go test -run TestPublicAPI -update .

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

const apiGoldenPath = "testdata/api.golden.txt"

// publicPackages are the import paths a module outside this one can
// name.
var publicPackages = []string{"roboads", "roboads/client"}

func TestPublicAPI(t *testing.T) {
	imp := importer.ForCompiler(token.NewFileSet(), "source", nil)
	w := apiWalker{seen: map[*types.TypeName]bool{}}
	for _, path := range publicPackages {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		w.pkg(pkg)
	}
	sort.Strings(w.lines)
	got := strings.Join(w.lines, "\n") + "\n"

	if *updateGolden {
		if err := os.WriteFile(apiGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if d := lineDiff(want, w.lines); d != "" {
		t.Errorf("public API differs from %s (-recorded +now):\n%s", apiGoldenPath, d)
	}
}

// lineDiff lists the lines only in want (-) and only in got (+); both
// are sorted.
func lineDiff(want, got []string) string {
	var b strings.Builder
	i, j := 0, 0
	for i < len(want) || j < len(got) {
		switch {
		case j == len(got) || (i < len(want) && want[i] < got[j]):
			fmt.Fprintf(&b, "- %s\n", want[i])
			i++
		case i == len(want) || got[j] < want[i]:
			fmt.Fprintf(&b, "+ %s\n", got[j])
			j++
		default:
			i++
			j++
		}
	}
	return b.String()
}

// apiWalker records one line per exported declaration and per exported
// field or method of each reached named type of this module.
type apiWalker struct {
	lines []string
	seen  map[*types.TypeName]bool
}

func (w *apiWalker) add(format string, args ...any) {
	w.lines = append(w.lines, fmt.Sprintf(format, args...))
}

func (w *apiWalker) pkg(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		qual := pkg.Path() + "." + name
		switch obj := obj.(type) {
		case *types.TypeName:
			if obj.IsAlias() {
				w.add("%s = %s", qual, typeString(obj.Type()))
				w.walk(obj.Type())
			} else {
				w.named(obj)
			}
		case *types.Const:
			w.add("%s const %s = %s", qual, typeString(obj.Type()), obj.Val().ExactString())
		case *types.Var:
			w.add("%s var %s", qual, typeString(obj.Type()))
			w.walk(obj.Type())
		case *types.Func:
			w.add("%s %s", qual, typeString(obj.Type()))
			w.walk(obj.Type())
		}
	}
}

// walk descends t to the named types it mentions.
func (w *apiWalker) walk(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		w.named(t.Obj())
	case *types.Pointer:
		w.walk(t.Elem())
	case *types.Slice:
		w.walk(t.Elem())
	case *types.Array:
		w.walk(t.Elem())
	case *types.Chan:
		w.walk(t.Elem())
	case *types.Map:
		w.walk(t.Key())
		w.walk(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				w.walk(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				w.walk(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				w.walk(m.Type())
			}
		}
	}
}

// named records a defined type of this module once: its underlying
// kind (the full type for a non-struct, non-interface), its exported
// fields, and its exported method set, promoted methods included.
func (w *apiWalker) named(obj *types.TypeName) {
	if obj.Pkg() == nil || w.seen[obj] {
		return
	}
	if path := obj.Pkg().Path(); path != "roboads" && !strings.HasPrefix(path, "roboads/") {
		return
	}
	w.seen[obj] = true
	qual := obj.Pkg().Path() + "." + obj.Name()
	under := obj.Type().Underlying()
	switch u := under.(type) {
	case *types.Struct:
		w.add("%s struct", qual)
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				w.add("%s.%s field %s", qual, f.Name(), typeString(f.Type()))
				w.walk(f.Type())
			}
		}
	case *types.Interface:
		w.add("%s interface", qual)
		for i := 0; i < u.NumMethods(); i++ {
			if m := u.Method(i); m.Exported() {
				w.add("%s.%s %s", qual, m.Name(), typeString(m.Type()))
				w.walk(m.Type())
			}
		}
		return
	default:
		w.add("%s %s", qual, typeString(under))
		w.walk(under)
	}
	mset := types.NewMethodSet(types.NewPointer(obj.Type()))
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		if !m.Exported() {
			continue
		}
		sig := m.Type().(*types.Signature)
		recv := qual
		if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
			recv = "(*" + qual + ")"
		}
		w.add("%s.%s %s", recv, m.Name(), typeString(sig))
		w.walk(sig)
	}
}

// typeString prints t with full package paths; a signature prints
// without parameter names, which are not part of the API.
func typeString(t types.Type) string {
	qualify := func(p *types.Package) string { return p.Path() }
	sig, ok := t.(*types.Signature)
	if !ok {
		return types.TypeString(t, qualify)
	}
	strip := func(tup *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, tup.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", tup.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, strip(sig.Params()), strip(sig.Results()), sig.Variadic())
	return types.TypeString(bare, qualify)
}
