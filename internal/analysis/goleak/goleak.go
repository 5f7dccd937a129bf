// Package goleak flags fire-and-forget goroutines — the static half of
// the concurrency-safety suite (the runtime half is
// internal/analysis/leakcheck).
//
// Every long-lived goroutine in WiClean is accounted for: the serving
// layer's reload loop selects on a done channel, and the mining join
// pool's workers join a sync.WaitGroup. A goroutine with none of those shapes outlives its
// spawner silently — under test it trips the race detector at best, and
// in production it is the classic slow leak that takes a high-QPS server
// down hours after the deploy.
//
// The analyzer inspects every `go` statement launching a function
// literal and requires one of three join/termination shapes:
//
//   - the closure receives from a channel (a `<-ch` expression, a
//     `select` with a receive case — including `<-ctx.Done()` — or a
//     `for range ch` drain loop): the spawner can end it by closing or
//     signaling the channel;
//   - the closure calls Done on a sync.WaitGroup: a Wait joins it;
//   - the closure sends its result on a channel that the enclosing
//     function also receives from (the errgroup shape:
//     `go func() { errCh <- run() }()` … `<-errCh`).
//
// `go` statements invoking a named function or method are not analyzed —
// the body is out of reach without interprocedural analysis — and a
// deliberate fire-and-forget closure carries
// //wiclean:allow-goleak <reason>.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"wiclean/internal/analysis"
)

// Analyzer is the goroutine-leak shape check.
var Analyzer = &analysis.Analyzer{
	Name:      "goleak",
	Directive: "goleak",
	Doc: "a go statement's closure must be joinable: receive from a done/ctx/job channel, " +
		"call WaitGroup.Done, or send on a channel the enclosing function receives from; " +
		"deliberate fire-and-forget carries //wiclean:allow-goleak <reason>",
	Run: run,
}

// run checks each go statement against the function body it appears
// in, every function literal counting as its own body: a goroutine
// spawned inside a closure must be joined by that closure, not by some
// outer frame that may long be gone.
func run(pass *analysis.Pass) error {
	pass.FuncBodies(func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGo(pass, g, body)
			}
			_, lit := n.(*ast.FuncLit)
			return !lit
		})
	})
	return nil
}

// checkGo applies the join-shape rules to one go statement inside the
// enclosing function body.
func checkGo(pass *analysis.Pass, g *ast.GoStmt, enclosing *ast.BlockStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return // named callee: body unavailable, out of scope by design
	}
	if closureJoinable(pass, lit) {
		return
	}
	// The errgroup shape: every channel the closure sends to is checked
	// against the receives of the enclosing function (the spawned literal
	// itself excluded — its sends cannot satisfy its own join).
	if sent := sentChannels(pass, lit); len(sent) > 0 {
		received := receivedChannels(pass, enclosing, lit)
		for obj := range sent {
			if received[obj] {
				return
			}
		}
	}
	pass.Reportf(g.Pos(),
		"goroutine is not joinable: its closure neither receives from a done/ctx/job channel, "+
			"calls WaitGroup.Done, nor sends on a channel this function receives from "+
			"(annotate //wiclean:allow-goleak <reason> for deliberate fire-and-forget)")
}

// closureJoinable reports whether the literal's body contains a receive
// (unary <-, select receive case, range over a channel) or a
// sync.WaitGroup Done call. Nested literals count: a deferred
// `func() { wg.Done() }()` still joins the goroutine.
func closureJoinable(pass *analysis.Pass, lit *ast.FuncLit) bool {
	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				joined = true
			}
		case *ast.RangeStmt:
			if isChannel(pass, n.X) {
				joined = true
			}
		case *ast.CallExpr:
			if isWaitGroupDone(pass, n) {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

// sentChannels collects the objects of every channel the literal's body
// sends to.
func sentChannels(pass *analysis.Pass, lit *ast.FuncLit) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok {
			if obj := pass.ObjectOf(send.Chan); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// receivedChannels collects the objects of every channel received from
// inside body, excluding the subtree of the spawned literal itself.
func receivedChannels(pass *analysis.Pass, body *ast.BlockStmt, exclude *ast.FuncLit) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == exclude {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := pass.ObjectOf(n.X); obj != nil {
					out[obj] = true
				}
			}
		case *ast.RangeStmt:
			if isChannel(pass, n.X) {
				if obj := pass.ObjectOf(n.X); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isChannel reports whether e's type is a channel.
func isChannel(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// isWaitGroupDone reports whether call is (*sync.WaitGroup).Done.
func isWaitGroupDone(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.FullName() == "(*sync.WaitGroup).Done"
}
