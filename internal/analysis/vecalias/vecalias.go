// Package vecalias flags functions that retain or return caller-owned
// []float64 data without copying.
//
// Invariant (paper Eq. 5): the filter's moving averages MA(C_k) are
// computed from update vectors that clients hand to the server. If any
// ingesting package (internal/core, internal/fl, internal/transport —
// selected by the driver's scoping) stores a parameter slice instead of
// copying it, a malicious client can mutate the buffer after submission
// and silently corrupt the statistics the defense is built on.
//
// The analysis is an intraprocedural escape-style dataflow:
//
//   - Sources: function parameters whose type carries a []float64
//     anywhere (the slice itself, a struct field like fl.Update.Delta, a
//     pointer/slice/map of such). Taint flows through selectors, indexing,
//     composite literals, &-of-tainted, append of carrier elements, and
//     local variable assignments (including range over a tainted slice).
//   - Copy boundaries: call results are never tainted (append([]float64(nil),
//     d...), vecmath.Clone(d), fl.CloneUpdate(u) all launder), appending
//     plain float64 elements copies values, and dereferencing a pointer
//     (*u) is treated as a value-copy boundary.
//   - Sinks: an assignment whose left side roots in a receiver, pointer
//     parameter, or package-level variable (retention), a return of
//     an expression whose static type is []float64 (handing the caller an
//     alias of another caller's buffer), and an argument to an
//     ownership-taking function (see below) — you cannot give away
//     memory you do not own.
//
// Ownership transfer: a function whose doc comment carries the
//
//	//afl:owned
//
// directive declares that its callers transfer ownership of every
// vector-carrying argument to it (fl.Buffer.Add after the arena rewrite,
// fl.Arena.PutVec/PutUpdate). Inside such a function parameters are NOT
// taint sources — retaining them is the point. Symmetrically, passing a
// still-caller-owned (tainted) argument *to* an ownership-taking
// function is flagged: the passer must either own the memory itself
// (be //afl:owned, or have materialized the vector locally) or clone.
// Cross-package ownership-taking functions are listed in crossOwned,
// since export data does not carry doc comments. A directive that is not
// the doc comment of a function declaration is itself flagged.
//
// Local bookkeeping — maps and slices that never leave the function —
// is deliberately not flagged.
package vecalias

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/asyncfl/asyncfilter/internal/analysis"
)

// OwnedDirective marks a function taking ownership of vector-carrying
// arguments.
const OwnedDirective = "//afl:owned"

// crossOwned lists ownership-taking functions outside the package under
// analysis, keyed by types.Func.FullName (doc comments are invisible
// through export data).
var crossOwned = map[string]bool{
	"(*github.com/asyncfl/asyncfilter/internal/fl.Buffer).Add":       true,
	"(*github.com/asyncfl/asyncfilter/internal/fl.Buffer).RequeueAt": true,
	"(*github.com/asyncfl/asyncfilter/internal/fl.Arena).PutVec":     true,
	"(*github.com/asyncfl/asyncfilter/internal/fl.Arena).PutUpdate":  true,
}

// Analyzer is the vecalias check.
var Analyzer = &analysis.Analyzer{
	Name: "vecalias",
	Doc:  "flags storing or returning caller-owned []float64 parameters without copying (clients could mutate filter state after submission)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	owned, accepted := collectOwned(pass)
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, cm := range cg.List {
				if isOwnedDirective(cm.Text) && !accepted[cm.Pos()] {
					pass.Reportf(cm.Pos(), "misplaced %s: the directive must be in the doc comment of a function declaration", OwnedDirective)
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, owned)
		}
	}
	return nil
}

// collectOwned gathers the //afl:owned functions of this package and the
// comment positions legitimately hosting the directive.
func collectOwned(pass *analysis.Pass) (map[*types.Func]bool, map[token.Pos]bool) {
	owned := make(map[*types.Func]bool)
	accepted := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, cm := range fn.Doc.List {
				if !isOwnedDirective(cm.Text) {
					continue
				}
				accepted[cm.Pos()] = true
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					owned[obj] = true
				}
			}
		}
	}
	return owned, accepted
}

func isOwnedDirective(text string) bool {
	return text == OwnedDirective || strings.HasPrefix(text, OwnedDirective+" ")
}

// funcCheck carries per-function dataflow state.
type funcCheck struct {
	pass *analysis.Pass
	// tainted holds objects (parameters and locals) known to alias
	// caller-owned vector memory.
	tainted map[types.Object]bool
	// outer holds objects whose memory outlives the call: the receiver,
	// pointer parameters, and (checked separately) package-level vars.
	outer map[types.Object]bool
	// owned holds this package's //afl:owned functions, for the
	// give-away-what-you-don't-own call check.
	owned map[*types.Func]bool
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, owned map[*types.Func]bool) {
	fc := &funcCheck{
		pass:    pass,
		tainted: make(map[types.Object]bool),
		outer:   make(map[types.Object]bool),
		owned:   owned,
	}
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					fc.outer[obj] = true
				}
			}
		}
	}
	// An //afl:owned function owns its parameters by contract: they are
	// not taint sources, so retaining them is legal.
	fnObj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	selfOwned := fnObj != nil && owned[fnObj]
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if !selfOwned && carries(obj.Type(), nil) {
				fc.tainted[obj] = true
			}
			if _, ok := obj.Type().Underlying().(*types.Pointer); ok {
				fc.outer[obj] = true
			}
		}
	}

	// Propagate taint through local assignments to a fixpoint, then
	// report sinks. Closures share the enclosing scope, so ast.Inspect
	// over the whole body (including FuncLits) is intentional.
	for {
		before := len(fc.tainted)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				fc.propagateAssign(n)
			case *ast.RangeStmt:
				fc.propagateRange(n)
			}
			return true
		})
		if len(fc.tainted) == before {
			break
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			fc.checkStore(n)
		case *ast.ReturnStmt:
			fc.checkReturn(n)
		case *ast.CallExpr:
			fc.checkGiveAway(n)
		}
		return true
	})
}

// checkGiveAway reports passing a still-caller-owned vector argument to
// an ownership-taking (//afl:owned) function: the callee will retain the
// memory, but this function never owned it.
func (fc *funcCheck) checkGiveAway(call *ast.CallExpr) {
	callee := analysis.CalleeOf(fc.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	if !fc.owned[callee] && !crossOwned[callee.FullName()] {
		return
	}
	for _, arg := range call.Args {
		if fc.taintedExpr(arg) && fc.carriesExpr(arg) {
			fc.pass.Reportf(arg.Pos(), "hands caller-owned vector memory to %s, which takes ownership (%s): clone first, or mark this function %s if its callers transfer ownership", callee.Name(), OwnedDirective, OwnedDirective)
		}
	}
}

// propagateAssign taints simple local variables assigned from tainted
// expressions.
func (fc *funcCheck) propagateAssign(assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		ident, ok := lhs.(*ast.Ident)
		if !ok || i >= len(assign.Rhs) {
			continue
		}
		obj := fc.lhsObject(ident)
		if obj == nil || fc.tainted[obj] {
			continue
		}
		if fc.taintedExpr(assign.Rhs[i]) {
			fc.tainted[obj] = true
		}
	}
}

// propagateRange taints the value variable of a range over a tainted
// carrier slice or map.
func (fc *funcCheck) propagateRange(rng *ast.RangeStmt) {
	if rng.Value == nil || !fc.taintedExpr(rng.X) {
		return
	}
	ident, ok := rng.Value.(*ast.Ident)
	if !ok {
		return
	}
	obj := fc.lhsObject(ident)
	if obj == nil {
		return
	}
	if carries(obj.Type(), nil) {
		fc.tainted[obj] = true
	}
}

// lhsObject resolves an assigned identifier to its object (Defs for :=,
// Uses for =).
func (fc *funcCheck) lhsObject(ident *ast.Ident) types.Object {
	if obj := fc.pass.TypesInfo.Defs[ident]; obj != nil {
		return obj
	}
	return fc.pass.TypesInfo.Uses[ident]
}

// checkStore reports assignments that retain tainted memory beyond the
// call: the left side roots in the receiver, a pointer parameter, or a
// package-level variable.
func (fc *funcCheck) checkStore(assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		if i >= len(assign.Rhs) {
			break
		}
		if !fc.escapingLHS(lhs) || !fc.taintedExpr(assign.Rhs[i]) {
			continue
		}
		fc.pass.Reportf(assign.Pos(), "stores caller-owned vector memory without copying: a client mutating the slice after submission corrupts retained state; clone on ingest (vecmath.Clone / fl.CloneUpdate)")
	}
}

// checkReturn reports returning an alias of a parameter's []float64.
func (fc *funcCheck) checkReturn(ret *ast.ReturnStmt) {
	for _, res := range ret.Results {
		if !fc.taintedExpr(res) {
			continue
		}
		tv, ok := fc.pass.TypesInfo.Types[res]
		if !ok || !isFloatSlice(tv.Type) {
			continue
		}
		fc.pass.Reportf(res.Pos(), "returns caller-owned []float64 without copying: callers will retain an alias of the submitter's buffer; return a clone")
	}
}

// escapingLHS reports whether an assignment target writes memory that
// outlives the function: selector/index/star chains rooted in the
// receiver or a pointer parameter, or any package-level variable.
func (fc *funcCheck) escapingLHS(lhs ast.Expr) bool {
	root := lhs
	for {
		switch e := ast.Unparen(root).(type) {
		case *ast.SelectorExpr:
			root = e.X
		case *ast.IndexExpr:
			root = e.X
		case *ast.StarExpr:
			root = e.X
		case *ast.Ident:
			obj := fc.pass.TypesInfo.Uses[e]
			if obj == nil {
				return false
			}
			if fc.outer[obj] {
				// Bare `x = rhs` rebinding of a pointer parameter does not
				// write through it; require at least one selector/index/star
				// step for parameters.
				if e == ast.Unparen(lhs) {
					return isPackageLevel(obj)
				}
				return true
			}
			return isPackageLevel(obj)
		default:
			return false
		}
	}
}

func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// taintedExpr reports whether expr aliases caller-owned vector memory.
func (fc *funcCheck) taintedExpr(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := fc.pass.TypesInfo.Uses[e]
		return obj != nil && fc.tainted[obj]
	case *ast.SelectorExpr:
		// msg.Delta aliases iff msg is tainted and the field itself
		// carries vector memory (float64 fields do not).
		return fc.taintedExpr(e.X) && fc.carriesExpr(e)
	case *ast.IndexExpr:
		return fc.taintedExpr(e.X) && fc.carriesExpr(e)
	case *ast.SliceExpr:
		// d[1:] shares d's backing array.
		return fc.taintedExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return fc.taintedExpr(e.X)
		}
		return false
	case *ast.StarExpr:
		// *u copies the struct value; treated as a shallow-copy boundary.
		return false
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if fc.taintedExpr(elt) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// append keeps aliasing only when the appended *elements* carry
		// vector memory; appending float64s copies values, and every
		// other call result is treated as freshly owned (Clone et al).
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, builtin := fc.pass.TypesInfo.Uses[id].(*types.Builtin); !builtin {
				return false
			}
			for i, arg := range e.Args[1:] {
				if !fc.taintedExpr(arg) {
					continue
				}
				// With append(s, d...) the appended elements have d's
				// element type, not d's type.
				if e.Ellipsis.IsValid() && i == len(e.Args)-2 {
					tv, ok := fc.pass.TypesInfo.Types[arg]
					if ok && tv.Type != nil {
						if s, isSlice := tv.Type.Underlying().(*types.Slice); isSlice && carries(s.Elem(), nil) {
							return true
						}
					}
					continue
				}
				if fc.carriesExpr(arg) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// carriesExpr reports whether the expression's static type carries a
// []float64.
func (fc *funcCheck) carriesExpr(expr ast.Expr) bool {
	tv, ok := fc.pass.TypesInfo.Types[expr]
	return ok && tv.Type != nil && carries(tv.Type, nil)
}

// carries reports whether t contains a []float64 anywhere, following
// pointers, slices, arrays, maps, and struct fields (with a cycle guard
// over named types).
func carries(t types.Type, seen map[*types.Named]bool) bool {
	switch t := t.(type) {
	case *types.Named:
		if seen[t] {
			return false
		}
		if seen == nil {
			seen = make(map[*types.Named]bool)
		}
		seen[t] = true
		return carries(t.Underlying(), seen)
	case *types.Slice:
		return isFloat64(t.Elem()) || carries(t.Elem(), seen)
	case *types.Array:
		return carries(t.Elem(), seen)
	case *types.Pointer:
		return carries(t.Elem(), seen)
	case *types.Map:
		return carries(t.Key(), seen) || carries(t.Elem(), seen)
	case *types.Chan:
		return carries(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if carries(t.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	}
	return false
}

func isFloatSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isFloat64(s.Elem())
}

func isFloat64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}
