package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EventLoop guards the cooperative scheduler. Event callbacks (literals
// passed to Engine.At/After/Spawn and friends) and process bodies (functions
// taking a *sim.Proc or *rtm.Thread) run interleaved with the engine: at
// most one runs at a time, and control moves only at explicit yield points.
// A goroutine spawn, channel operation or sync primitive inside one either
// blocks the engine, which runs them inline, or races the virtual clock
// against the host scheduler — the Go analogue of breaking the paper's
// five-thread priority discipline. An unbounded loop without a yield or exit freezes
// virtual time entirely.
var EventLoop = &Analyzer{
	Name: "eventloop",
	Doc: "forbid goroutine spawns, channel operations, sync primitives and " +
		"unbounded loops inside sim event callbacks and process bodies",
	Scope: func(pkgPath string) bool {
		// The engine itself implements the handshake and is exempt.
		return !isEnginePkg(pkgPath)
	},
	Run: runEventLoop,
}

func isEnginePkg(path string) bool {
	return path == "internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

// isSchedulerPkg reports whether the import path is one of the cooperative
// scheduling layers (the sim engine or the RT-Mach thread layer on top).
func isSchedulerPkg(path string) bool {
	for _, s := range []string{"internal/sim", "internal/rtm"} {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func runEventLoop(pass *Pass) error {
	v := &eventLoopVisitor{pass: pass, reported: map[token.Pos]bool{}}

	// Index this package's function declarations so callbacks passed as
	// method values (e.g. eng.After(d, k.burstEnd)) resolve to their bodies.
	declOf := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					declOf[fn] = fd
				}
			}
		}
	}

	// Mark callback functions: any function value handed to the scheduler
	// packages, plus any function with a scheduler-context parameter.
	markedLits := map[*ast.FuncLit]bool{} // value: runs as process body
	markedDecls := map[*ast.FuncDecl]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := calleeFunc(pass.TypesInfo, n)
				if callee == nil || callee.Pkg() == nil || !isSchedulerPkg(callee.Pkg().Path()) {
					return true
				}
				for _, arg := range n.Args {
					switch arg := ast.Unparen(arg).(type) {
					case *ast.FuncLit:
						markedLits[arg] = markedLits[arg] || funcLitTakesProc(pass.TypesInfo, arg)
					case *ast.Ident, *ast.SelectorExpr:
						if fn := usedFunc(pass.TypesInfo, arg); fn != nil {
							if fd, ok := declOf[fn]; ok {
								markedDecls[fd] = markedDecls[fd] || declTakesProc(pass.TypesInfo, fd)
							}
						}
					}
				}
			case *ast.FuncLit:
				if funcLitTakesProc(pass.TypesInfo, n) {
					markedLits[n] = true
				}
			case *ast.FuncDecl:
				if n.Body != nil && declTakesProc(pass.TypesInfo, n) {
					markedDecls[n] = true
				}
			}
			return true
		})
	}

	v.marked = markedLits
	for lit, isProc := range markedLits {
		v.check(lit.Body, "sim callback", isProc)
	}
	for fd, isProc := range markedDecls {
		what := "sim callback " + fd.Name.Name
		if isProc {
			what = "process body " + fd.Name.Name
		}
		v.check(fd.Body, what, isProc)
	}
	return nil
}

type eventLoopVisitor struct {
	pass     *Pass
	marked   map[*ast.FuncLit]bool
	reported map[token.Pos]bool
}

func (v *eventLoopVisitor) reportf(pos token.Pos, format string, args ...any) {
	if v.reported[pos] {
		return
	}
	v.reported[pos] = true
	v.pass.Reportf(pos, format, args...)
}

// check walks one callback body. isProc indicates a process body, which may
// loop forever as long as each iteration yields to the scheduler.
func (v *eventLoopVisitor) check(body *ast.BlockStmt, what string, isProc bool) {
	info := v.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested literal that is itself a scheduler callback is
			// checked separately under its own context.
			if _, ok := v.marked[n]; ok {
				return false
			}
			return true
		case *ast.GoStmt:
			v.reportf(n.Pos(),
				"goroutine spawn inside %s: the engine interleaves work deterministically; use Engine.Spawn or schedule an event instead", what)
		case *ast.SendStmt:
			v.reportf(n.Pos(),
				"channel send inside %s would block the engine, which runs callbacks and processes inline; communicate through sim.Queue or scheduled events", what)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				v.reportf(n.Pos(),
					"channel receive inside %s would block the engine, which runs callbacks and processes inline; communicate through sim.Queue or scheduled events", what)
			}
		case *ast.SelectStmt:
			v.reportf(n.Pos(),
				"select inside %s hands scheduling to the Go runtime; the engine must stay the only scheduler", what)
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					v.reportf(n.Pos(),
						"range over channel inside %s would block the engine, which runs callbacks and processes inline", what)
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				v.reportf(n.Pos(),
					"sync.%s inside %s: real locks stall virtual time; the engine already serializes callbacks", qualifiedName(fn), what)
			}
		case *ast.ForStmt:
			if n.Cond == nil && !loopHasExit(n) && !(isProc && loopYields(info, n)) {
				v.reportf(n.Pos(),
					"unbounded for loop inside %s never returns control to the engine; add an exit condition or a yield (Sleep/Block/Queue.Get)", what)
			}
		}
		return true
	})
}

// qualifiedName renders Mutex.Lock style names for methods and plain names
// for functions.
func qualifiedName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// calleeFunc resolves a call expression to the function or method it
// invokes, or nil for calls through function values and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return usedFunc(info, ast.Unparen(call.Fun))
}

func usedFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isSchedulerHandle reports whether t is a pointer to a type declared in a
// scheduler package (*sim.Proc, *rtm.Thread, ...).
func isSchedulerHandle(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return isSchedulerPkg(named.Obj().Pkg().Path())
}

func funcLitTakesProc(info *types.Info, lit *ast.FuncLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return false
	}
	return signatureTakesProc(sig)
}

func declTakesProc(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return signatureTakesProc(sig)
}

func signatureTakesProc(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isSchedulerHandle(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// loopHasExit reports whether a condition-less for loop can terminate: an
// unlabeled break at its own level, any labeled break, a return, a goto, or
// a panic. Nested function literals are opaque.
func loopHasExit(loop *ast.ForStmt) bool {
	exit := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		if exit || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exit = true
		case *ast.BranchStmt:
			switch n.Tok {
			case token.GOTO:
				exit = true
			case token.BREAK:
				if breakable || n.Label != nil {
					exit = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				exit = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			// An unlabeled break inside binds to this inner statement.
			ast.Inspect(n, func(inner ast.Node) bool {
				if inner == n {
					return true
				}
				walk(inner, false)
				return false
			})
			return
		}
		ast.Inspect(n, func(inner ast.Node) bool {
			if inner == n {
				return true
			}
			walk(inner, breakable)
			return false
		})
	}
	for _, stmt := range loop.Body.List {
		walk(stmt, true)
	}
	return exit
}

// loopYields reports whether the loop body touches a scheduler handle — a
// *sim.Proc or *rtm.Thread value — which is how process bodies reach their
// yield points (Sleep, Block, Queue.Get, ReadSync, ...).
func loopYields(info *types.Info, loop *ast.ForStmt) bool {
	yields := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if yields {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && isSchedulerHandle(obj.Type()) {
			yields = true
		}
		return true
	})
	return yields
}
