package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file implements `icvet race`: a whole-program static race analysis
// over instrumented simulated programs. It over-approximates every
// schedule at once — the complement of the dynamic vector-clock detector
// in internal/racefilter, which only sees the schedules it happens to
// execute — and reports every pair of sim access sites that may touch the
// same abstract memory region from different threads with disjoint
// locksets and no barrier episode ordering them.
//
// The engine is deliberately source-level (go/ast + go/types, like the
// other icvet analyzers) and built from four abstractions:
//
//   - a context-sensitive interprocedural walk: each program's Worker
//     body is walked with package-local callees inlined (parameters bound
//     to caller argument expressions), so accesses inside helpers like
//     addForce or spinWaitFlag are attributed with the caller's lockset,
//     barrier phase, and substituted address expression;
//   - a region abstraction: every address expression is reduced to the
//     set of allocation roots it can refer to — program struct fields and
//     package-level words (keyed to their AllocStatic site labels),
//     Malloc site labels, or the unknown region for pointer-chased
//     addresses. Two accesses may alias when their root sets intersect
//     (unknown aliases unknown and any Malloc region);
//   - a lockset lattice: the walk tracks the multiset of held sched.Mutex
//     acquisition expressions (same break-state logic as the lockpair
//     analyzer). A pair sharing a lock key is ordered; a pair whose
//     identical access pattern is consistently locked through the same
//     index variable (canonically equal address and lock, lock variables
//     a subset of address variables) is treated as instance-consistent
//     locking, the per-molecule-lock idiom;
//   - barrier-phase ordering: sched.Barrier waits partition each Worker
//     into segments. Loops are walked once, and every barrier-carrying
//     loop contributes its per-iteration barrier count as a period, so a
//     site's reachable set of barrier-episode indices is {base + Σ kᵢ·pᵢ}.
//     Two sites can only be concurrent when those sets intersect.
//
// Precision heuristics (documented in DESIGN.md, audited by the dynamic
// cross-check in racecross_test.go): accesses whose canonical address
// patterns are identical and mention a thread-identity-derived variable
// (t.TID(), or span() bounds computed from it) are assumed disjoint
// across threads (the owner-computes partition idiom), and sites guarded
// by the same `tid == K` condition are assumed to be the same thread.

// RaceSite is one static sim access site of a candidate pair.
type RaceSite struct {
	// Pos locates the t.Load/LoadF/Store/StoreF call.
	Pos token.Position
	// Kind is "load" or "store".
	Kind string
	// Lockset holds the substituted lock expressions held at the access.
	Lockset []string
	// Guard is the thread-identity guard ("tid==0") or "".
	Guard string
}

// ID renders the site as "dir/file.go:line:col" with the path shortened
// to its last two components — the stable site identity of the report.
func (s RaceSite) ID() string {
	return fmt.Sprintf("%s:%d:%d", shortSitePath(s.Pos.Filename), s.Pos.Line, s.Pos.Column)
}

// FileLine renders the site as "dir/file.go:line", the granularity the
// dynamic detector's runtime attribution can reproduce.
func (s RaceSite) FileLine() string {
	return fmt.Sprintf("%s:%d", shortSitePath(s.Pos.Filename), s.Pos.Line)
}

// shortSitePath keeps the final directory and base name of a source path,
// as sim.Site does for a dynamic access site (this package imports no
// internal package, so it keeps its own copy; TestRaceCrossCheck pins
// that the two agree).
func shortSitePath(file string) string {
	short := filepath.ToSlash(file)
	parts := strings.Split(short, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

// RacePair is one candidate racy site pair.
type RacePair struct {
	// Program names the sim.Program type the pair belongs to.
	Program string
	// A and B are the two sites, A ≤ B by position.
	A, B RaceSite
	// Region is the shared abstract region, rendered as its allocation
	// site label when known ("static:radix.rank", "cholesky.taskNode"),
	// or "?" for the unknown (pointer-chased) region.
	Region string
	// Kind is the access-pair kind: "write-write", "read-write" (A
	// loads), or "write-read" (A stores).
	Kind string
	// Suppressed is true when an //icvet:ignore race comment covers
	// either site's line. Suppressed pairs are dropped from reports but
	// kept by the engine: the soundness cross-check runs against the
	// full set.
	Suppressed bool
}

// String renders the pair as one deterministic report line.
func (p RacePair) String() string {
	return fmt.Sprintf("%s %s ~ %s %s region=%s program=%s",
		p.A.ID(), p.A.Kind, p.B.ID(), p.B.Kind, p.Region, p.Program)
}

// RaceReport is the result of RaceCheck over one package.
type RaceReport struct {
	// Package is the analyzed package's display path.
	Package string
	// Pairs holds every candidate pair (suppressed ones included),
	// sorted by program, then site A, then site B.
	Pairs []RacePair
}

// Active returns the unsuppressed pairs, the report's user-facing view.
func (r *RaceReport) Active() []RacePair {
	var out []RacePair
	for _, p := range r.Pairs {
		if !p.Suppressed {
			out = append(out, p)
		}
	}
	return out
}

// RaceCheck runs the static race analysis over every sim.Program of the
// package: each type with both Setup and Worker methods (or paired
// package-level Setup/Worker functions) is analyzed independently, since
// accesses of different programs never share a run.
func RaceCheck(pkg *Package) *RaceReport {
	e := newRaceEngine(pkg)
	rep := &RaceReport{Package: pkg.Path}
	for _, prog := range e.programs() {
		rep.Pairs = append(rep.Pairs, e.analyze(prog)...)
	}
	markSuppressedPairs(pkg, rep.Pairs)
	sort.Slice(rep.Pairs, func(i, j int) bool {
		a, b := rep.Pairs[i], rep.Pairs[j]
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if c := comparePos(a.A.Pos, b.A.Pos); c != 0 {
			return c < 0
		}
		return comparePos(a.B.Pos, b.B.Pos) < 0
	})
	return rep
}

func comparePos(a, b token.Position) int {
	if a.Filename != b.Filename {
		return strings.Compare(a.Filename, b.Filename)
	}
	if a.Line != b.Line {
		return a.Line - b.Line
	}
	return a.Column - b.Column
}

// markSuppressedPairs applies //icvet:ignore race comments: a pair is
// suppressed when either site's line carries one.
func markSuppressedPairs(pkg *Package, pairs []RacePair) {
	sup := suppressions(pkg)
	covered := func(s RaceSite) bool {
		for _, n := range sup[s.Pos.Filename][s.Pos.Line] {
			if n == "race" || n == "all" {
				return true
			}
		}
		return false
	}
	for i := range pairs {
		if covered(pairs[i].A) || covered(pairs[i].B) {
			pairs[i].Suppressed = true
		}
	}
}

// raceSuppressionUsed reports, for stale-ignore detection, every
// (file, line) whose //icvet:ignore race comment actually covers a pair
// site.
func raceSuppressionUsed(pairs []RacePair) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	mark := func(s RaceSite) {
		lines := out[s.Pos.Filename]
		if lines == nil {
			lines = make(map[int]bool)
			out[s.Pos.Filename] = lines
		}
		lines[s.Pos.Line] = true
	}
	for _, p := range pairs {
		mark(p.A)
		mark(p.B)
	}
	return out
}

// ---- engine ----

const (
	rootUnknown = "?"  // pointer-chased address: no static root
	ownedMark   = "τ"  // τ: canonical placeholder for owner-derived locals
	localMark   = "•"  // •: canonical placeholder for other locals
	inlineDepth = 24   // interprocedural inlining bound
	maxEpisode  = 4096 // horizon for episode-set enumeration
)

type raceEngine struct {
	pkg *Package
	// funcs maps each package-local function or method object to its
	// declaration, the inlining table.
	funcs map[*types.Func]*ast.FuncDecl
	// allocLabels maps a region root ("field:T.f" or "pkg:v") to the
	// AllocStatic/Malloc site label it was allocated with.
	allocLabels map[string]string
}

func newRaceEngine(pkg *Package) *raceEngine {
	e := &raceEngine{
		pkg:         pkg,
		funcs:       make(map[*types.Func]*ast.FuncDecl),
		allocLabels: make(map[string]string),
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				e.funcs[obj] = fd
			}
		}
	}
	e.collectAllocLabels()
	return e
}

// program is one sim.Program of the package: a receiver type (or the
// package itself) with Setup and Worker entry points.
type program struct {
	name   string       // receiver type name, or the package name
	recv   *types.Named // nil for free-function programs
	setup  *ast.FuncDecl
	worker *ast.FuncDecl
}

// programs groups the package's Setup/Worker functions by receiver type.
func (e *raceEngine) programs() []*program {
	byName := make(map[string]*program)
	var order []string
	for _, pf := range progFuncs(e.pkg) {
		fd := pf.decl
		name := e.pkg.Types.Name()
		var recv *types.Named
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			t := e.pkg.Info.Types[fd.Recv.List[0].Type].Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				recv = n
				name = n.Obj().Name()
			}
		}
		p := byName[name]
		if p == nil {
			p = &program{name: name, recv: recv}
			byName[name] = p
			order = append(order, name)
		}
		if pf.kind == "Setup" {
			p.setup = fd
		} else {
			p.worker = fd
		}
	}
	sort.Strings(order)
	var out []*program
	for _, n := range order {
		if p := byName[n]; p.worker != nil {
			out = append(out, p)
		}
	}
	return out
}

// collectAllocLabels scans every assignment of a Malloc/AllocStatic call
// to a field or package-level variable and records root -> site label.
func (e *raceEngine) collectAllocLabels() {
	inspectFiles(e.pkg, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			name, ok := threadMethod(e.pkg, call)
			if !ok || (name != "Malloc" && name != "AllocStatic") || len(call.Args) != 3 {
				continue
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				continue
			}
			label, err := strconv.Unquote(lit.Value)
			if err != nil {
				continue
			}
			if root := e.lhsRoot(as.Lhs[i]); root != "" {
				e.allocLabels[root] = label
			}
		}
		return true
	})
}

// lhsRoot derives the region root named by an assignment target: a
// struct field selector or a package-level variable.
func (e *raceEngine) lhsRoot(lhs ast.Expr) string {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		if sel := e.pkg.Info.Selections[lhs]; sel != nil && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return fieldRoot(v)
			}
		}
	case *ast.Ident:
		if v, ok := e.pkg.Info.Defs[lhs].(*types.Var); ok && isPackageLevel(e.pkg, v) {
			return "pkg:" + v.Name()
		}
		if v, ok := e.pkg.Info.Uses[lhs].(*types.Var); ok && isPackageLevel(e.pkg, v) {
			return "pkg:" + v.Name()
		}
	}
	return ""
}

// isAddrWord reports whether a type can hold a simulated memory address:
// the simulator addresses memory with uint64 words, so only uint64
// fields and variables denote region bases — int-typed sizes and indices
// never do.
func isAddrWord(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint64 || b.Kind() == types.Uintptr)
}

// fieldRoot keys a struct field as a region root, qualified by its
// owning struct so same-named fields of different programs stay apart.
func fieldRoot(v *types.Var) string {
	owner := ""
	if v.Pkg() != nil {
		owner = v.Pkg().Name() + "."
	}
	return "field:" + owner + v.Name()
}

// absVal is the abstract value of an expression in a walk context.
type absVal struct {
	// display is the substituted source rendering ("idx(p.hist, tid*64+d)"
	// becomes "p.hist+(tid*64+d)"-shaped text), used in messages.
	display string
	// canon is the rendering with every function-local variable replaced
	// by a placeholder, the pattern identity for the consistent-locking
	// and owner-partition rules.
	canon string
	// roots is the set of region roots the value may refer to.
	roots []string
	// owned is true when the value mentions the thread identity (t.TID()
	// or a variable derived from it through the span partition idiom).
	owned bool
}

// access is one sim memory access in Worker context.
type access struct {
	pos     token.Position
	kind    string // "load" | "store"
	addr    absVal
	lockset []lockHeld
	segBase int
	periods []int
	guard   string // "tid==K" or ""
}

type lockHeld struct {
	display string
	canon   string
}

// walkState is the mutable state of one statement walk.
type walkState struct {
	locks   []lockHeld
	seg     int
	periods []int // accumulated: enclosing loops and exited barrier loops
	guard   string
}

func (st *walkState) clone() *walkState {
	return &walkState{
		locks:   append([]lockHeld(nil), st.locks...),
		seg:     st.seg,
		periods: append([]int(nil), st.periods...),
		guard:   st.guard,
	}
}

// walkCtx is one function instantiation: variable bindings produced by
// parameter substitution and local assignments.
type walkCtx struct {
	// bind maps locals and parameters to their abstract values.
	bind map[*types.Var]*absVal
	// tidVars holds locals that carry t.TID() directly.
	tidVars map[*types.Var]bool
	// active guards the inlining recursion.
	active map[*types.Func]bool
	depth  int
	// wantResults, namedResults, and results implement return-value
	// capture: when wantResults > 0, every return statement's values are
	// evaluated and merged into results (named-result bare returns read
	// the result variables' bindings).
	wantResults  int
	namedResults []*types.Var
	results      []*absVal
}

func newWalkCtx() *walkCtx {
	return &walkCtx{
		bind:    make(map[*types.Var]*absVal),
		tidVars: make(map[*types.Var]bool),
		active:  make(map[*types.Func]bool),
	}
}

func (c *walkCtx) child() *walkCtx {
	return &walkCtx{
		bind:    make(map[*types.Var]*absVal),
		tidVars: make(map[*types.Var]bool),
		active:  c.active,
		depth:   c.depth + 1,
	}
}

// mergeResults joins one return statement's values into the accumulated
// per-position results: roots union, ownership disjunction, and the
// pattern survives only when every path agrees on it.
func (c *walkCtx) mergeResults(vals []*absVal) {
	if c.results == nil {
		c.results = vals
		return
	}
	for i, v := range vals {
		old := c.results[i]
		merged := &absVal{roots: unionRoots(old.roots, v.roots), owned: old.owned || v.owned}
		if old.canon == v.canon {
			merged.canon, merged.display = old.canon, old.display
		} else {
			merged.canon = markFor(merged.owned)
			merged.display = localMark
		}
		c.results[i] = merged
	}
}

// walker drives one program's interprocedural walk.
type walker struct {
	e        *raceEngine
	accesses []access
	// mute suppresses access recording during pure value-evaluation
	// walks of callee bodies (the statements were already walked for
	// effects by the inlining pass).
	mute int
	// uniform is cleared when the barrier structure stops being
	// provably thread-uniform (a barrier under a tid guard or in a
	// branch with unbalanced counts): episode ordering is then
	// abandoned and every segment may overlap every other.
	uniform bool
}

// analyze walks one program's Worker and pairs up its accesses.
func (e *raceEngine) analyze(p *program) []RacePair {
	w := &walker{e: e, uniform: true}
	ctx := newWalkCtx()
	st := &walkState{}
	w.bindParams(p.worker, ctx)
	w.walkStmts(p.worker.Body.List, ctx, st)
	return e.pairs(p, w)
}

// bindParams binds a declaration's receiver and parameters to themselves
// (the root instantiation: Worker's receiver and *sim.Thread argument).
func (w *walker) bindParams(fd *ast.FuncDecl, ctx *walkCtx) {
	bindList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if v, ok := w.e.pkg.Info.Defs[n].(*types.Var); ok {
					ctx.bind[v] = &absVal{display: n.Name, canon: n.Name}
				}
			}
		}
	}
	bindList(fd.Recv)
	bindList(fd.Type.Params)
}

// ---- statement walk ----

// walkStmts walks a list, returning true when control definitely leaves.
func (w *walker) walkStmts(list []ast.Stmt, ctx *walkCtx, st *walkState) bool {
	for _, stmt := range list {
		if w.walkStmt(stmt, ctx, st) {
			return true
		}
	}
	return false
}

func (w *walker) walkStmt(stmt ast.Stmt, ctx *walkCtx, st *walkState) bool {
	switch stmt := stmt.(type) {
	case *ast.ExprStmt:
		w.scanExpr(stmt.X, ctx, st)
		return stmtTerminates(stmt)
	case *ast.AssignStmt:
		w.assign(stmt, ctx, st)
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var val *absVal
					if i < len(vs.Values) {
						w.scanExpr(vs.Values[i], ctx, st)
						val = w.eval(vs.Values[i], ctx)
					} else {
						val = &absVal{display: localMark, canon: localMark}
					}
					if v, ok := w.e.pkg.Info.Defs[name].(*types.Var); ok {
						ctx.bind[v] = val
					}
				}
			}
		}
	case *ast.IfStmt:
		if stmt.Init != nil {
			w.walkStmt(stmt.Init, ctx, st)
		}
		w.scanExpr(stmt.Cond, ctx, st)
		bodySt := st.clone()
		if g := w.tidGuard(stmt.Cond, ctx); g != "" {
			bodySt.guard = g
		}
		segBefore := st.seg
		bodyTerm := w.walkStmts(stmt.Body.List, ctx, bodySt)
		bodyBarriers := bodySt.seg - segBefore
		if stmt.Else == nil {
			if bodyBarriers != 0 {
				w.uniform = false
			}
			if !bodyTerm {
				st.locks = bodySt.locks
			}
			return false
		}
		elseSt := st.clone()
		elseTerm := w.walkStmt(stmt.Else, ctx, elseSt)
		elseBarriers := elseSt.seg - segBefore
		if bodyBarriers != elseBarriers || bodySt.guard != st.guard {
			if bodyBarriers != 0 || elseBarriers != 0 {
				w.uniform = false
			}
		}
		switch {
		case bodyTerm && !elseTerm:
			st.locks = elseSt.locks
			st.seg = elseSt.seg
		case !bodyTerm:
			st.locks = bodySt.locks
			st.seg = bodySt.seg
		}
		return bodyTerm && elseTerm
	case *ast.ForStmt:
		if stmt.Init != nil {
			w.walkStmt(stmt.Init, ctx, st)
			// The classic owner-partition loop: for i := lo; i < hi —
			// the loop variable inherits ownership from its init.
			if as, ok := stmt.Init.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					if v, ok := w.e.pkg.Info.Defs[id].(*types.Var); ok {
						init := w.eval(as.Rhs[0], ctx)
						ctx.bind[v] = &absVal{
							display: id.Name,
							canon:   markFor(init.owned),
							owned:   init.owned,
						}
					}
				}
			}
		}
		if stmt.Cond != nil {
			w.scanExpr(stmt.Cond, ctx, st)
		}
		w.walkLoopBody(stmt.Body, nil, ctx, st)
	case *ast.RangeStmt:
		w.scanExpr(stmt.X, ctx, st)
		for _, ke := range []ast.Expr{stmt.Key, stmt.Value} {
			if id, ok := ke.(*ast.Ident); ok {
				if v, ok := w.e.pkg.Info.Defs[id].(*types.Var); ok {
					ctx.bind[v] = &absVal{display: id.Name, canon: localMark}
				}
			}
		}
		w.walkLoopBody(stmt.Body, nil, ctx, st)
	case *ast.BlockStmt:
		return w.walkStmts(stmt.List, ctx, st)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		segBefore := st.seg
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				cs := st.clone()
				w.walkStmts(n.Body, ctx, cs)
				if cs.seg != segBefore {
					w.uniform = false
				}
				return false
			case *ast.CommClause:
				cs := st.clone()
				w.walkStmts(n.Body, ctx, cs)
				if cs.seg != segBefore {
					w.uniform = false
				}
				return false
			}
			return true
		})
	case *ast.LabeledStmt:
		return w.walkStmt(stmt.Stmt, ctx, st)
	case *ast.ReturnStmt:
		for _, r := range stmt.Results {
			w.scanExpr(r, ctx, st)
		}
		if ctx.wantResults > 0 {
			var vals []*absVal
			switch {
			case len(stmt.Results) == ctx.wantResults:
				for _, r := range stmt.Results {
					vals = append(vals, w.eval(r, ctx))
				}
			case len(stmt.Results) == 0 && len(ctx.namedResults) == ctx.wantResults:
				for _, v := range ctx.namedResults {
					if b := ctx.bind[v]; b != nil {
						vals = append(vals, b)
					} else {
						vals = append(vals, &absVal{display: localMark, canon: localMark})
					}
				}
			}
			if vals != nil {
				ctx.mergeResults(vals)
			}
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end (its
		// accesses stay protected); other deferred effects are scanned
		// in place, a harmless over-approximation of "runs at exit".
		if name, ok := threadMethod(w.e.pkg, stmt.Call); ok && (name == "Unlock" || name == "StartHashing") {
			return false
		}
		w.scanExpr(stmt.Call, ctx, st)
	case *ast.GoStmt:
		w.scanExpr(stmt.Call, ctx, st)
	case *ast.IncDecStmt:
		w.scanExpr(stmt.X, ctx, st)
	case *ast.SendStmt:
		w.scanExpr(stmt.Chan, ctx, st)
		w.scanExpr(stmt.Value, ctx, st)
	}
	return false
}

// walkLoopBody walks a loop body once, then accounts for the unknown
// iteration count: if the body crossed P > 0 barriers, P becomes a
// period for everything inside and after the loop.
func (w *walker) walkLoopBody(body *ast.BlockStmt, post ast.Stmt, ctx *walkCtx, st *walkState) {
	segBefore := st.seg
	periodsBefore := len(st.periods)
	start := len(w.accesses)

	inner := st.clone()
	w.walkStmts(body.List, ctx, inner)
	if post != nil {
		w.walkStmt(post, ctx, inner)
	}
	period := inner.seg - segBefore
	if period > 0 {
		// Accesses inside the loop repeat with this period.
		for i := start; i < len(w.accesses); i++ {
			w.accesses[i].periods = append(w.accesses[i].periods, period)
		}
		st.seg = inner.seg
		st.periods = append(st.periods[:periodsBefore:periodsBefore], inner.periods[periodsBefore:]...)
		st.periods = append(st.periods, period)
	}
}

// assign records accesses on both sides and updates local bindings.
func (w *walker) assign(stmt *ast.AssignStmt, ctx *walkCtx, st *walkState) {
	vals := make([]*absVal, 0, len(stmt.Rhs))
	for _, r := range stmt.Rhs {
		w.scanExpr(r, ctx, st)
		vals = append(vals, w.eval(r, ctx))
	}
	for _, l := range stmt.Lhs {
		w.scanExpr(l, ctx, st)
	}
	if len(stmt.Rhs) != len(stmt.Lhs) {
		vals = nil // multi-value call: bind per return position
		if len(stmt.Rhs) == 1 {
			if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok {
				vals = w.evalCallResults(call, ctx, len(stmt.Lhs))
			}
		}
	}
	for i, l := range stmt.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v, ok := w.e.pkg.Info.Defs[id].(*types.Var)
		if !ok {
			if u, ok2 := w.e.pkg.Info.Uses[id].(*types.Var); ok2 && !isPackageLevel(w.e.pkg, u) && !u.IsField() {
				v = u // plain = assignment to an existing local
			}
		}
		if v == nil {
			continue
		}
		var val *absVal
		if vals != nil {
			val = vals[i]
		} else {
			val = &absVal{display: localMark, canon: localMark}
		}
		if stmt.Tok == token.DEFINE {
			// t.TID() bound directly makes a thread-identity variable.
			if call, ok := stmt.Rhs[min(i, len(stmt.Rhs)-1)].(*ast.CallExpr); ok && len(stmt.Rhs) == len(stmt.Lhs) {
				if name, ok := threadMethod(w.e.pkg, call); ok && name == "TID" {
					ctx.tidVars[v] = true
				}
			}
		}
		if old := ctx.bind[v]; old != nil && stmt.Tok != token.DEFINE {
			// Re-assignment: accumulate may-roots (the src/dst swap
			// idiom) and drop pattern identity if it changed.
			merged := &absVal{
				display: old.display,
				canon:   old.canon,
				roots:   unionRoots(old.roots, val.roots),
				owned:   old.owned || val.owned,
			}
			if old.canon != val.canon {
				merged.canon = markFor(merged.owned)
				merged.display = id.Name
			}
			ctx.bind[v] = merged
			continue
		}
		ctx.bind[v] = val
	}
}

func markFor(owned bool) string {
	if owned {
		return ownedMark
	}
	return localMark
}

func unionRoots(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range [][]string{a, b} {
		for _, r := range s {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// tidGuard recognizes `tid == K` (possibly as a && conjunct) and returns
// its canonical form, or "".
func (w *walker) tidGuard(cond ast.Expr, ctx *walkCtx) string {
	switch cond := cond.(type) {
	case *ast.ParenExpr:
		return w.tidGuard(cond.X, ctx)
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LAND:
			if g := w.tidGuard(cond.X, ctx); g != "" {
				return g
			}
			return w.tidGuard(cond.Y, ctx)
		case token.EQL:
			for _, pair := range [][2]ast.Expr{{cond.X, cond.Y}, {cond.Y, cond.X}} {
				if w.isTIDExpr(pair[0], ctx) {
					if lit, ok := pair[1].(*ast.BasicLit); ok && lit.Kind == token.INT {
						return "tid==" + lit.Value
					}
				}
			}
		}
	}
	return ""
}

// isTIDExpr reports whether e denotes the calling thread's id.
func (w *walker) isTIDExpr(e ast.Expr, ctx *walkCtx) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := w.e.pkg.Info.Uses[e].(*types.Var); ok {
			return ctx.tidVars[v]
		}
	case *ast.CallExpr:
		if name, ok := threadMethod(w.e.pkg, e); ok {
			return name == "TID"
		}
	}
	return false
}

// ---- expression scan: finding sim effects ----

// scanExpr walks an expression recording accesses, lock transitions,
// barrier waits, and inlining package-local calls.
func (w *walker) scanExpr(e ast.Expr, ctx *walkCtx, st *walkState) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		w.scanCall(e, ctx, st)
	case *ast.FuncLit:
		// A function literal's body executes wherever it is called; the
		// programs under analysis invoke them in place or not at all.
		// Walk the body in the current state as an over-approximation.
		w.walkStmts(e.Body.List, ctx, st.clone())
	case *ast.ParenExpr:
		w.scanExpr(e.X, ctx, st)
	case *ast.BinaryExpr:
		w.scanExpr(e.X, ctx, st)
		w.scanExpr(e.Y, ctx, st)
	case *ast.UnaryExpr:
		w.scanExpr(e.X, ctx, st)
	case *ast.StarExpr:
		w.scanExpr(e.X, ctx, st)
	case *ast.SelectorExpr:
		w.scanExpr(e.X, ctx, st)
	case *ast.IndexExpr:
		w.scanExpr(e.X, ctx, st)
		w.scanExpr(e.Index, ctx, st)
	case *ast.SliceExpr:
		w.scanExpr(e.X, ctx, st)
		w.scanExpr(e.Low, ctx, st)
		w.scanExpr(e.High, ctx, st)
		w.scanExpr(e.Max, ctx, st)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			w.scanExpr(elt, ctx, st)
		}
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value, ctx, st)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, ctx, st)
	}
}

// scanCall handles one call: Thread accessors become effects, local
// functions are inlined, everything else has its arguments scanned.
func (w *walker) scanCall(call *ast.CallExpr, ctx *walkCtx, st *walkState) {
	if name, ok := threadMethod(w.e.pkg, call); ok {
		switch name {
		case "Load", "LoadF":
			if len(call.Args) == 1 {
				w.scanExpr(call.Args[0], ctx, st)
				w.record("load", call, call.Args[0], ctx, st)
				return
			}
		case "Store", "StoreF":
			if len(call.Args) == 2 {
				w.scanExpr(call.Args[0], ctx, st)
				w.scanExpr(call.Args[1], ctx, st)
				w.record("store", call, call.Args[0], ctx, st)
				return
			}
		case "Lock":
			if len(call.Args) == 1 {
				w.scanExpr(call.Args[0], ctx, st)
				lv := w.eval(call.Args[0], ctx)
				st.locks = append(st.locks, lockHeld{display: lv.display, canon: lv.canon})
				return
			}
		case "Unlock":
			if len(call.Args) == 1 {
				w.scanExpr(call.Args[0], ctx, st)
				lv := w.eval(call.Args[0], ctx)
				for i := len(st.locks) - 1; i >= 0; i-- {
					if st.locks[i].display == lv.display {
						st.locks = append(st.locks[:i], st.locks[i+1:]...)
						break
					}
				}
				return
			}
		case "BarrierWait":
			for _, a := range call.Args {
				w.scanExpr(a, ctx, st)
			}
			st.seg++
			if st.guard != "" {
				// A barrier only some threads reach breaks the uniform
				// episode structure (in reality it deadlocks; the
				// conservative reading is "no ordering").
				w.uniform = false
			}
			return
		case "Free", "Malloc", "AllocStatic":
			for _, a := range call.Args {
				w.scanExpr(a, ctx, st)
			}
			return
		}
		// Other Thread methods (Yield, Compute, TID, Rand, ...): scan args.
		for _, a := range call.Args {
			w.scanExpr(a, ctx, st)
		}
		return
	}
	// Package-local function or method: inline.
	if fd, obj := w.callee(call); fd != nil {
		w.inline(call, fd, obj, ctx, st)
		return
	}
	// Unknown callee (stdlib, conversions): scan arguments.
	for _, a := range call.Args {
		w.scanExpr(a, ctx, st)
	}
	if len(call.Args) == 1 {
		return
	}
}

// callee resolves a call to a package-local function declaration.
func (w *walker) callee(call *ast.CallExpr) (*ast.FuncDecl, *types.Func) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = w.e.pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := w.e.pkg.Info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			obj = sel.Obj()
		} else {
			obj = w.e.pkg.Info.Uses[fun.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, nil
	}
	fd := w.e.funcs[fn]
	return fd, fn
}

// inline walks a callee body with parameters bound to the abstract
// values of the caller's arguments.
func (w *walker) inline(call *ast.CallExpr, fd *ast.FuncDecl, obj *types.Func, ctx *walkCtx, st *walkState) {
	for _, a := range call.Args {
		w.scanExpr(a, ctx, st)
	}
	if ctx.depth >= inlineDepth || ctx.active[obj] {
		return
	}
	ctx.active[obj] = true
	defer delete(ctx.active, obj)
	w.walkStmts(fd.Body.List, w.bindCallee(call, fd, ctx), st)
}

// bindCallee builds a callee instantiation: the receiver and parameters
// bound to the caller's argument values (variadic tails and blank
// parameters stay unbound and evaluate opaquely).
func (w *walker) bindCallee(call *ast.CallExpr, fd *ast.FuncDecl, ctx *walkCtx) *walkCtx {
	callee := ctx.child()
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if v, ok := w.e.pkg.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
				callee.bind[v] = w.eval(sel.X, ctx)
			}
		}
	}
	params := fd.Type.Params
	argIdx := 0
	if params != nil {
		for _, f := range params.List {
			for _, n := range f.Names {
				var val *absVal
				if argIdx < len(call.Args) {
					val = w.eval(call.Args[argIdx], ctx)
				} else {
					val = &absVal{display: localMark, canon: localMark}
				}
				if v, ok := w.e.pkg.Info.Defs[n].(*types.Var); ok {
					callee.bind[v] = val
					if argIdx < len(call.Args) && w.isTIDExpr(call.Args[argIdx], ctx) {
						callee.tidVars[v] = true
					}
				}
				argIdx++
			}
			if len(f.Names) == 0 {
				argIdx++
			}
		}
	}
	return callee
}

// evalCallResults evaluates a package-local call for its return values:
// the callee body is walked with effect recording muted (the inlining
// pass already walked it for effects) and every return path's values are
// merged per position. Returns nil when the callee cannot be resolved.
func (w *walker) evalCallResults(call *ast.CallExpr, ctx *walkCtx, n int) []*absVal {
	fd, obj := w.callee(call)
	if fd == nil || ctx.active[obj] || ctx.depth >= inlineDepth {
		return nil
	}
	ctx.active[obj] = true
	defer delete(ctx.active, obj)
	callee := w.bindCallee(call, fd, ctx)
	callee.wantResults = n
	if res := fd.Type.Results; res != nil {
		for _, f := range res.List {
			for _, name := range f.Names {
				if v, ok := w.e.pkg.Info.Defs[name].(*types.Var); ok {
					callee.namedResults = append(callee.namedResults, v)
				}
			}
		}
	}
	w.mute++
	w.walkStmts(fd.Body.List, callee, &walkState{})
	w.mute--
	if len(callee.results) != n {
		return nil
	}
	return callee.results
}

// record captures one access.
func (w *walker) record(kind string, call *ast.CallExpr, addrExpr ast.Expr, ctx *walkCtx, st *walkState) {
	if w.mute > 0 {
		return
	}
	addr := w.eval(addrExpr, ctx)
	if len(addr.roots) == 0 {
		addr.roots = []string{rootUnknown}
	}
	w.accesses = append(w.accesses, access{
		pos:     w.e.pkg.Fset.Position(call.Pos()),
		kind:    kind,
		addr:    *addr,
		lockset: append([]lockHeld(nil), st.locks...),
		segBase: st.seg,
		periods: append([]int(nil), st.periods...),
		guard:   st.guard,
	})
}

// ---- abstract evaluation ----

// eval computes the abstract value of an expression: substituted display
// and canonical renderings, region roots, and ownership.
func (w *walker) eval(e ast.Expr, ctx *walkCtx) *absVal {
	return w.evalDepth(e, ctx, 0)
}

func (w *walker) evalDepth(e ast.Expr, ctx *walkCtx, depth int) *absVal {
	if depth > inlineDepth {
		return &absVal{display: localMark, canon: localMark}
	}
	switch e := e.(type) {
	case *ast.BasicLit:
		return &absVal{display: e.Value, canon: e.Value}
	case *ast.Ident:
		return w.evalIdent(e, ctx)
	case *ast.ParenExpr:
		inner := w.evalDepth(e.X, ctx, depth)
		return &absVal{
			display: "(" + inner.display + ")",
			canon:   "(" + inner.canon + ")",
			roots:   inner.roots,
			owned:   inner.owned,
		}
	case *ast.SelectorExpr:
		return w.evalSelector(e, ctx, depth)
	case *ast.BinaryExpr:
		x := w.evalDepth(e.X, ctx, depth)
		y := w.evalDepth(e.Y, ctx, depth)
		return &absVal{
			display: x.display + e.Op.String() + y.display,
			canon:   x.canon + e.Op.String() + y.canon,
			roots:   unionRoots(x.roots, y.roots),
			owned:   x.owned || y.owned,
		}
	case *ast.UnaryExpr:
		x := w.evalDepth(e.X, ctx, depth)
		return &absVal{
			display: e.Op.String() + x.display,
			canon:   e.Op.String() + x.canon,
			roots:   x.roots,
			owned:   x.owned,
		}
	case *ast.IndexExpr:
		x := w.evalDepth(e.X, ctx, depth)
		idx := w.evalDepth(e.Index, ctx, depth)
		return &absVal{
			display: x.display + "[" + idx.display + "]",
			canon:   x.canon + "[" + idx.canon + "]",
			roots:   x.roots,
			owned:   x.owned || idx.owned,
		}
	case *ast.StarExpr:
		x := w.evalDepth(e.X, ctx, depth)
		return &absVal{display: "*" + x.display, canon: "*" + x.canon, roots: x.roots, owned: x.owned}
	case *ast.CallExpr:
		return w.evalCall(e, ctx, depth)
	}
	return &absVal{display: localMark, canon: localMark}
}

func (w *walker) evalIdent(e *ast.Ident, ctx *walkCtx) *absVal {
	obj := w.e.pkg.Info.Uses[e]
	if obj == nil {
		obj = w.e.pkg.Info.Defs[e]
	}
	switch obj := obj.(type) {
	case *types.Var:
		if ctx.tidVars[obj] {
			return &absVal{display: e.Name, canon: ownedMark, owned: true}
		}
		if b := ctx.bind[obj]; b != nil {
			return b
		}
		if isPackageLevel(w.e.pkg, obj) {
			v := &absVal{display: e.Name, canon: e.Name}
			if isAddrWord(obj.Type()) {
				v.roots = []string{"pkg:" + obj.Name()}
			}
			return v
		}
		// Unbound local (declared in an unwalked scope): opaque.
		return &absVal{display: e.Name, canon: localMark}
	case *types.Const:
		return &absVal{display: e.Name, canon: e.Name}
	case *types.Func, *types.TypeName, *types.Builtin:
		return &absVal{display: e.Name, canon: e.Name}
	}
	return &absVal{display: e.Name, canon: localMark}
}

func (w *walker) evalSelector(e *ast.SelectorExpr, ctx *walkCtx, depth int) *absVal {
	x := w.evalDepth(e.X, ctx, depth)
	out := &absVal{
		display: x.display + "." + e.Sel.Name,
		canon:   x.canon + "." + e.Sel.Name,
		owned:   x.owned,
	}
	if sel := w.e.pkg.Info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
		if v, ok := sel.Obj().(*types.Var); ok && isAddrWord(v.Type()) {
			out.roots = []string{fieldRoot(v)}
		}
	}
	return out
}

func (w *walker) evalCall(call *ast.CallExpr, ctx *walkCtx, depth int) *absVal {
	// Thread methods with meaningful values.
	if name, ok := threadMethod(w.e.pkg, call); ok {
		switch name {
		case "TID":
			return &absVal{display: "tid", canon: ownedMark, owned: true}
		case "Malloc", "AllocStatic":
			if len(call.Args) == 3 {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok {
					if label, err := strconv.Unquote(lit.Value); err == nil {
						return &absVal{display: name + "(" + lit.Value + ")", canon: localMark, roots: []string{"malloc:" + label}}
					}
				}
			}
			return &absVal{display: localMark, canon: localMark, roots: []string{rootUnknown}}
		case "Load", "LoadF":
			// A pointer chased out of simulated memory: unknown region.
			return &absVal{display: localMark, canon: localMark, roots: []string{rootUnknown}}
		}
		return &absVal{display: localMark, canon: localMark}
	}
	// Type conversion: transparent.
	if tv, ok := w.e.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.evalDepth(call.Args[0], ctx, depth)
	}
	// Package-local function: walk its body for the returned value.
	if res := w.evalCallResults(call, ctx, 1); res != nil {
		return res[0]
	}
	return &absVal{display: localMark, canon: localMark}
}

// ---- pairing ----

// pairs compares every two accesses of one program and reports the
// candidate racy pairs.
func (e *raceEngine) pairs(p *program, w *walker) []RacePair {
	acc := w.accesses
	type pairKey struct{ a, b string }
	seen := make(map[pairKey]bool)
	var out []RacePair
	for i := 0; i < len(acc); i++ {
		for j := i; j < len(acc); j++ {
			a, b := &acc[i], &acc[j]
			if a.kind != "store" && b.kind != "store" {
				continue
			}
			if !rootsOverlap(a.addr.roots, b.addr.roots) {
				continue
			}
			if !threadsFeasible(a, b, i == j) {
				continue
			}
			if w.uniform && !episodesOverlap(a, b) {
				continue
			}
			if ownerDisjoint(a, b) {
				continue
			}
			if locksetsOrdered(a, b) {
				continue
			}
			pa, pb := siteOf(a), siteOf(b)
			if comparePos(pb.Pos, pa.Pos) < 0 {
				pa, pb = pb, pa
			}
			k := pairKey{pa.ID() + "/" + pa.Kind, pb.ID() + "/" + pb.Kind}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, RacePair{
				Program: p.name,
				A:       pa,
				B:       pb,
				Region:  e.regionLabel(a.addr.roots, b.addr.roots),
				Kind:    pairKind(pa.Kind, pb.Kind),
			})
		}
	}
	return out
}

func siteOf(a *access) RaceSite {
	locks := make([]string, 0, len(a.lockset))
	for _, l := range a.lockset {
		locks = append(locks, l.display)
	}
	return RaceSite{Pos: a.pos, Kind: a.kind, Lockset: locks, Guard: a.guard}
}

func pairKind(a, b string) string {
	switch {
	case a == "store" && b == "store":
		return "write-write"
	case a == "store":
		return "write-read"
	default:
		return "read-write"
	}
}

// rootsOverlap reports whether two root sets may alias: a shared root,
// or the unknown region against unknown or any Malloc region (pointer
// chases land in heap blocks).
func rootsOverlap(a, b []string) bool {
	for _, ra := range a {
		for _, rb := range b {
			if ra == rb {
				return true
			}
			if ra == rootUnknown && (rb == rootUnknown || strings.HasPrefix(rb, "malloc:")) {
				return true
			}
			if rb == rootUnknown && strings.HasPrefix(ra, "malloc:") {
				return true
			}
		}
	}
	return false
}

// threadsFeasible reports whether the two sites can execute on different
// threads: sites pinned to the same `tid == K` are one thread, and a
// single site pinned to any tid never races itself.
func threadsFeasible(a, b *access, self bool) bool {
	if self {
		return a.guard == ""
	}
	if a.guard != "" && a.guard == b.guard {
		return false
	}
	return true
}

// episodesOverlap reports whether the two sites' reachable barrier
// episode sets intersect: {base + Σ kᵢ·pᵢ} each, enumerated to a bounded
// horizon. The horizon is generous relative to real barrier counts; a
// miss beyond it errs toward "ordered", which the dynamic cross-check
// audits.
func episodesOverlap(a, b *access) bool {
	horizon := a.segBase + b.segBase + 2
	for _, p := range a.periods {
		horizon += p
	}
	for _, p := range b.periods {
		horizon += p
	}
	horizon *= 4
	if horizon > maxEpisode {
		horizon = maxEpisode
	}
	ea := reachableEpisodes(a.segBase, a.periods, horizon)
	for ep := range reachableEpisodes(b.segBase, b.periods, horizon) {
		if ea[ep] {
			return true
		}
	}
	return false
}

// reachableEpisodes enumerates base + nonnegative combinations of the
// periods up to the horizon.
func reachableEpisodes(base int, periods []int, horizon int) map[int]bool {
	set := map[int]bool{base: true}
	frontier := []int{base}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, v := range frontier {
			for _, p := range periods {
				if p <= 0 {
					continue
				}
				nv := v + p
				if nv <= horizon && !set[nv] {
					set[nv] = true
					next = append(next, nv)
				}
			}
		}
		frontier = next
	}
	return set
}

// ownerDisjoint implements the owner-computes partition heuristic: two
// accesses whose canonical address patterns are identical and mention
// the thread identity are per-thread partitions of the region — the
// idx(a, tid*k+d) and for-i-in-span idioms — and never collide across
// threads.
func ownerDisjoint(a, b *access) bool {
	return a.addr.owned && b.addr.owned && a.addr.canon == b.addr.canon
}

// locksetsOrdered reports whether a common lock orders the pair: an
// identical held lock expression, or the instance-consistent pattern
// (identical canonical address and lock patterns with the lock's
// variables drawn from the address expression, the per-element-lock
// idiom where colliding addresses imply colliding locks).
func locksetsOrdered(a, b *access) bool {
	for _, la := range a.lockset {
		for _, lb := range b.lockset {
			// A textual match only names one mutex when the expression
			// has no local variables: p.locks[first] in two threads is
			// two different locks even though the text agrees.
			if la.display == lb.display && !hasLocalToken(la.canon) {
				return true
			}
		}
	}
	if a.addr.canon != b.addr.canon {
		return false
	}
	for _, la := range a.lockset {
		for _, lb := range b.lockset {
			if la.canon == lb.canon && lockVarsFromAddr(la, a) && lockVarsFromAddr(lb, b) {
				return true
			}
		}
	}
	return false
}

// lockVarsFromAddr checks the consistency condition of the
// instance-locking rule: every local variable mentioned by the lock
// expression also appears in the address expression, so equal addresses
// pick equal locks.
func lockVarsFromAddr(l lockHeld, a *access) bool {
	for _, v := range localTokens(l.display, l.canon) {
		if !containsToken(a.addr.display, v) {
			return false
		}
	}
	return true
}

// containsToken reports whether s mentions name as a whole identifier
// (not as a substring of a longer one, so "i" does not match "uint64").
func containsToken(s, name string) bool {
	for start := 0; ; {
		i := strings.Index(s[start:], name)
		if i < 0 {
			return false
		}
		i += start
		before := i == 0 || !isIdentRune(rune(s[i-1]))
		afterIdx := i + len(name)
		after := afterIdx >= len(s) || !isIdentRune(rune(s[afterIdx]))
		if before && after {
			return true
		}
		start = i + 1
	}
}

// localTokens extracts the display names that the canonical form
// collapsed to placeholders — the lock's local variables.
func localTokens(display, canon string) []string {
	// Align display and canon: wherever canon holds a placeholder rune,
	// the corresponding display token is a local variable name.
	var out []string
	d, c := []rune(display), []rune(canon)
	di := 0
	for ci := 0; ci < len(c); ci++ {
		if string(c[ci]) != ownedMark && string(c[ci]) != localMark {
			// Advance display to the matching literal rune.
			for di < len(d) && d[di] != c[ci] {
				di++
			}
			di++
			continue
		}
		// Placeholder: consume an identifier from display.
		start := di
		for di < len(d) && (isIdentRune(d[di])) {
			di++
		}
		if di > start {
			out = append(out, string(d[start:di]))
		}
	}
	return out
}

// hasLocalToken reports whether a canonical rendering mentions any
// function-local variable (a τ or • placeholder).
func hasLocalToken(canon string) bool {
	return strings.Contains(canon, ownedMark) || strings.Contains(canon, localMark)
}

func isIdentRune(r rune) bool {
	return r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
}

// regionLabel renders the shared region of a pair: the allocation site
// label of a common root when known, otherwise the root itself.
func (e *raceEngine) regionLabel(a, b []string) string {
	var common []string
	for _, ra := range a {
		for _, rb := range b {
			if ra == rb {
				common = append(common, ra)
			}
		}
	}
	if len(common) == 0 {
		return "?"
	}
	sort.Strings(common)
	labels := make([]string, 0, len(common))
	for _, r := range common {
		switch {
		case r == rootUnknown:
			labels = append(labels, "?")
		case strings.HasPrefix(r, "malloc:"):
			labels = append(labels, strings.TrimPrefix(r, "malloc:"))
		default:
			if l, ok := e.allocLabels[r]; ok {
				labels = append(labels, l)
			} else {
				labels = append(labels, strings.TrimPrefix(strings.TrimPrefix(r, "field:"), "pkg:"))
			}
		}
	}
	sort.Strings(labels)
	return strings.Join(uniqueStrings(labels), "|")
}

func uniqueStrings(in []string) []string {
	var out []string
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}
