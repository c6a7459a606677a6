// Package randckt generates random synchronous circuits as FIRRTL ASTs.
// The generated designs exercise the whole compiler pipeline (when
// expansion, width inference, netlist flattening, partitioning) and are
// the raw material for cross-engine equivalence fuzzing: every engine
// must produce identical architectural state on identical stimulus.
package randckt

import (
	"fmt"
	"math/big"
	"math/rand"

	"essent/internal/firrtl"
)

// Config shapes a generated circuit.
type Config struct {
	// Nodes is the number of combinational node statements.
	Nodes int
	// Regs is the number of registers.
	Regs int
	// Inputs is the number of data input ports.
	Inputs int
	// Outputs is the number of output ports.
	Outputs int
	// MaxWidth bounds signal widths (values > 64 exercise the wide path).
	MaxWidth int
	// Signed admits SInt signals.
	Signed bool
	// Mem adds a memory with one read and one write port.
	Mem bool
	// Whens wraps some register updates in when blocks.
	Whens bool
	// Printfs adds printf sinks, each enabled by a random 1-bit signal
	// and printing one random signal. The CCSS planner keeps every
	// partition holding a sink always-on.
	Printfs int
}

// DefaultConfig is a medium-sized mixed circuit.
func DefaultConfig() Config {
	return Config{Nodes: 60, Regs: 8, Inputs: 4, Outputs: 3,
		MaxWidth: 70, Signed: true, Mem: true, Whens: true}
}

type gen struct {
	rng *rand.Rand
	cfg Config
	// pool of available signals: name, width, signed
	pool []sig
	body []firrtl.Stmt
	n    int
}

type sig struct {
	name   string
	width  int
	signed bool
}

// Generate builds a random circuit named "Rand". The same seed and config
// always produce the same circuit.
func Generate(seed int64, cfg Config) *firrtl.Circuit {
	g := &gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	m := &firrtl.Module{Name: "Rand"}
	m.Ports = append(m.Ports,
		firrtl.Port{Name: "clock", Dir: firrtl.Input, Type: firrtl.Type{Kind: firrtl.ClockType, Width: 1}},
		firrtl.Port{Name: "reset", Dir: firrtl.Input, Type: firrtl.Type{Kind: firrtl.UIntType, Width: 1}},
	)
	g.pool = append(g.pool, sig{"reset", 1, false})
	for i := 0; i < cfg.Inputs; i++ {
		w := g.width()
		name := fmt.Sprintf("in%d", i)
		m.Ports = append(m.Ports, firrtl.Port{
			Name: name, Dir: firrtl.Input,
			Type: firrtl.Type{Kind: firrtl.UIntType, Width: w},
		})
		g.pool = append(g.pool, sig{name, w, false})
	}

	// Registers: declare first so nodes can read them (feedback).
	type regInfo struct {
		name   string
		width  int
		signed bool
	}
	var regs []regInfo
	for i := 0; i < cfg.Regs; i++ {
		w := g.width()
		signed := cfg.Signed && g.rng.Intn(3) == 0
		r := regInfo{fmt.Sprintf("r%d", i), w, signed}
		regs = append(regs, r)
		kind := firrtl.UIntType
		if signed {
			kind = firrtl.SIntType
		}
		def := &firrtl.DefReg{
			Name: r.name, Type: firrtl.Type{Kind: kind, Width: w},
			Clock: &firrtl.Ref{Name: "clock"},
		}
		if g.rng.Intn(2) == 0 {
			def.Reset = &firrtl.Ref{Name: "reset"}
			def.Init = &firrtl.Lit{Type: firrtl.Type{Kind: kind, Width: w}, Value: big.NewInt(0)}
		}
		g.body = append(g.body, def)
		g.pool = append(g.pool, sig{r.name, w, signed})
	}

	// Combinational nodes.
	for i := 0; i < cfg.Nodes; i++ {
		e, w, signed := g.expr()
		name := fmt.Sprintf("n%d", g.n)
		g.n++
		g.body = append(g.body, &firrtl.DefNode{Name: name, Value: e})
		g.pool = append(g.pool, sig{name, w, signed})
	}

	// Memory.
	if cfg.Mem {
		g.body = append(g.body, &firrtl.DefMemory{
			Name: "m", DataType: firrtl.Type{Kind: firrtl.UIntType, Width: 16},
			Depth: 32, ReadLatency: 0, WriteLatency: 1,
			Readers: []string{"r"}, Writers: []string{"w"},
		})
		addr := func() firrtl.Expr { return g.fit(g.pick(), 5, false) }
		conn := func(field string, v firrtl.Expr) {
			g.body = append(g.body, &firrtl.Connect{
				Loc: &firrtl.SubField{
					Of:    &firrtl.SubField{Of: &firrtl.Ref{Name: "m"}, Field: field[:1]},
					Field: field[2:],
				},
				Value: v,
			})
		}
		one := &firrtl.Lit{Type: firrtl.Type{Kind: firrtl.UIntType, Width: 1}, Value: big.NewInt(1)}
		conn("r.addr", addr())
		conn("r.en", one)
		g.body = append(g.body, &firrtl.Connect{
			Loc: &firrtl.SubField{
				Of:    &firrtl.SubField{Of: &firrtl.Ref{Name: "m"}, Field: "r"},
				Field: "clk"},
			Value: &firrtl.Ref{Name: "clock"},
		})
		conn("w.addr", addr())
		conn("w.en", g.fit(g.pick(), 1, false))
		g.body = append(g.body, &firrtl.Connect{
			Loc: &firrtl.SubField{
				Of:    &firrtl.SubField{Of: &firrtl.Ref{Name: "m"}, Field: "w"},
				Field: "clk"},
			Value: &firrtl.Ref{Name: "clock"},
		})
		conn("w.data", g.fit(g.pick(), 16, false))
		conn("w.mask", one)
		g.pool = append(g.pool, sig{"m.r.data", 16, false})
	}

	// Register updates (some under when).
	for _, r := range regs {
		val := g.fit(g.pick(), r.width, r.signed)
		conn := &firrtl.Connect{Loc: &firrtl.Ref{Name: r.name}, Value: val}
		if cfg.Whens && g.rng.Intn(3) == 0 {
			cond := g.fit(g.pick(), 1, false)
			w := &firrtl.When{Cond: cond, Then: []firrtl.Stmt{conn}}
			if g.rng.Intn(2) == 0 {
				alt := g.fit(g.pick(), r.width, r.signed)
				w.Else = []firrtl.Stmt{&firrtl.Connect{Loc: &firrtl.Ref{Name: r.name}, Value: alt}}
			}
			g.body = append(g.body, w)
		} else {
			g.body = append(g.body, conn)
		}
	}

	for i := 0; i < cfg.Printfs; i++ {
		g.body = append(g.body, &firrtl.Printf{
			Clock:  &firrtl.Ref{Name: "clock"},
			En:     g.fit(g.pick(), 1, false),
			Format: fmt.Sprintf("p%d %%d\n", i),
			Args:   []firrtl.Expr{g.ref(g.pick())},
		})
	}

	// Outputs sample late pool entries so deep logic stays live.
	for i := 0; i < cfg.Outputs; i++ {
		w := g.width()
		name := fmt.Sprintf("out%d", i)
		m.Ports = append(m.Ports, firrtl.Port{
			Name: name, Dir: firrtl.Output,
			Type: firrtl.Type{Kind: firrtl.UIntType, Width: w},
		})
		s := g.pool[len(g.pool)-1-g.rng.Intn(min(len(g.pool), 10))]
		g.body = append(g.body, &firrtl.Connect{
			Loc: &firrtl.Ref{Name: name}, Value: g.fit(s, w, false),
		})
	}

	m.Body = g.body
	return &firrtl.Circuit{Name: "Rand", Modules: []*firrtl.Module{m}}
}

func (g *gen) width() int {
	max := g.cfg.MaxWidth
	if max <= 0 {
		max = 32
	}
	switch g.rng.Intn(5) {
	case 0:
		return 1 + g.rng.Intn(4)
	case 1:
		return 1 + g.rng.Intn(16)
	case 2:
		if max < 61 {
			return 1 + g.rng.Intn(max)
		}
		return 60 + g.rng.Intn(min(9, max-59))
	default:
		return 1 + g.rng.Intn(max)
	}
}

func (g *gen) pick() sig {
	return g.pool[g.rng.Intn(len(g.pool))]
}

func (g *gen) ref(s sig) firrtl.Expr {
	// Dotted names (memory read data) need SubField chains.
	if s.name == "m.r.data" {
		return &firrtl.SubField{
			Of:    &firrtl.SubField{Of: &firrtl.Ref{Name: "m"}, Field: "r"},
			Field: "data",
		}
	}
	return &firrtl.Ref{Name: s.name}
}

// fit adapts a signal to exactly the requested width and signedness.
func (g *gen) fit(s sig, width int, signed bool) firrtl.Expr {
	e := g.ref(s)
	w := s.width
	// Normalize kind to UInt.
	if s.signed {
		e = &firrtl.Prim{Op: firrtl.OpAsUInt, Args: []firrtl.Expr{e}}
	}
	if w > width {
		e = &firrtl.Prim{Op: firrtl.OpBits, Args: []firrtl.Expr{e}, Params: []int{width - 1, 0}}
		w = width
	} else if w < width {
		e = &firrtl.Prim{Op: firrtl.OpPad, Args: []firrtl.Expr{e}, Params: []int{width}}
		w = width
	}
	if signed {
		e = &firrtl.Prim{Op: firrtl.OpAsSInt, Args: []firrtl.Expr{e}}
	}
	return e
}

// expr builds a random primop expression over the pool and returns it with
// its result width and signedness.
func (g *gen) expr() (firrtl.Expr, int, bool) {
	a := g.pick()
	switch g.rng.Intn(14) {
	case 0: // add/sub on matched kinds
		b := g.pick()
		signed := g.cfg.Signed && g.rng.Intn(4) == 0
		wa, wb := a.width, b.width
		ea, eb := g.fit(a, wa, signed), g.fit(b, wb, signed)
		op := firrtl.OpAdd
		if g.rng.Intn(2) == 0 {
			op = firrtl.OpSub
		}
		return &firrtl.Prim{Op: op, Args: []firrtl.Expr{ea, eb}}, max(wa, wb) + 1, signed
	case 1: // mul, bounded width
		b := g.pick()
		wa, wb := min(a.width, 24), min(b.width, 24)
		ea, eb := g.fit(a, wa, false), g.fit(b, wb, false)
		return &firrtl.Prim{Op: firrtl.OpMul, Args: []firrtl.Expr{ea, eb}}, wa + wb, false
	case 2: // div/rem
		b := g.pick()
		signed := g.cfg.Signed && g.rng.Intn(4) == 0
		ea, eb := g.fit(a, a.width, signed), g.fit(b, b.width, signed)
		if g.rng.Intn(2) == 0 {
			w := a.width
			if signed {
				w++
			}
			return &firrtl.Prim{Op: firrtl.OpDiv, Args: []firrtl.Expr{ea, eb}}, w, signed
		}
		return &firrtl.Prim{Op: firrtl.OpRem, Args: []firrtl.Expr{ea, eb}},
			min(a.width, b.width), signed
	case 3: // comparison
		b := g.pick()
		signed := g.cfg.Signed && g.rng.Intn(4) == 0
		ops := []firrtl.PrimOp{firrtl.OpLt, firrtl.OpLeq, firrtl.OpGt, firrtl.OpGeq,
			firrtl.OpEq, firrtl.OpNeq}
		op := ops[g.rng.Intn(len(ops))]
		return &firrtl.Prim{Op: op,
			Args: []firrtl.Expr{g.fit(a, a.width, signed), g.fit(b, b.width, signed)}}, 1, false
	case 4: // bitwise
		b := g.pick()
		ops := []firrtl.PrimOp{firrtl.OpAnd, firrtl.OpOr, firrtl.OpXor}
		op := ops[g.rng.Intn(len(ops))]
		return &firrtl.Prim{Op: op,
				Args: []firrtl.Expr{g.fit(a, a.width, false), g.fit(b, b.width, false)}},
			max(a.width, b.width), false
	case 5: // not
		return &firrtl.Prim{Op: firrtl.OpNot,
			Args: []firrtl.Expr{g.fit(a, a.width, false)}}, a.width, false
	case 6: // reductions
		ops := []firrtl.PrimOp{firrtl.OpAndr, firrtl.OpOrr, firrtl.OpXorr}
		op := ops[g.rng.Intn(len(ops))]
		return &firrtl.Prim{Op: op,
			Args: []firrtl.Expr{g.fit(a, a.width, false)}}, 1, false
	case 7: // cat
		b := g.pick()
		wa, wb := min(a.width, 40), min(b.width, 40)
		return &firrtl.Prim{Op: firrtl.OpCat,
			Args: []firrtl.Expr{g.fit(a, wa, false), g.fit(b, wb, false)}}, wa + wb, false
	case 8: // bits
		hi := g.rng.Intn(a.width)
		lo := g.rng.Intn(hi + 1)
		return &firrtl.Prim{Op: firrtl.OpBits,
			Args: []firrtl.Expr{g.fit(a, a.width, false)}, Params: []int{hi, lo}}, hi - lo + 1, false
	case 9: // shl/shr static
		n := g.rng.Intn(12)
		if g.rng.Intn(2) == 0 {
			return &firrtl.Prim{Op: firrtl.OpShl,
					Args: []firrtl.Expr{g.fit(a, min(a.width, 50), false)}, Params: []int{n}},
				min(a.width, 50) + n, false
		}
		return &firrtl.Prim{Op: firrtl.OpShr,
				Args: []firrtl.Expr{g.fit(a, a.width, false)}, Params: []int{n}},
			max(a.width-n, 1), false
	case 10: // dynamic shifts
		b := g.pick()
		sh := g.fit(b, 4, false)
		if g.rng.Intn(2) == 0 {
			wa := min(a.width, 40)
			return &firrtl.Prim{Op: firrtl.OpDshl,
				Args: []firrtl.Expr{g.fit(a, wa, false), sh}}, wa + 15, false
		}
		return &firrtl.Prim{Op: firrtl.OpDshr,
			Args: []firrtl.Expr{g.fit(a, a.width, false), sh}}, a.width, false
	case 11: // mux
		b := g.pick()
		c := g.pick()
		w := max(b.width, c.width)
		return &firrtl.Mux{
			Cond: g.fit(a, 1, false),
			T:    g.fit(b, w, false),
			F:    g.fit(c, w, false),
		}, w, false
	case 12: // neg/cvt
		if g.rng.Intn(2) == 0 {
			return &firrtl.Prim{Op: firrtl.OpNeg,
				Args: []firrtl.Expr{g.fit(a, a.width, false)}}, a.width + 1, true
		}
		return &firrtl.Prim{Op: firrtl.OpCvt,
			Args: []firrtl.Expr{g.fit(a, a.width, false)}}, a.width + 1, true
	default: // pad/tail copy
		if a.width > 2 && g.rng.Intn(2) == 0 {
			n := 1 + g.rng.Intn(a.width-2)
			return &firrtl.Prim{Op: firrtl.OpTail,
					Args: []firrtl.Expr{g.fit(a, a.width, false)}, Params: []int{n}},
				a.width - n, false
		}
		return g.fit(a, a.width+3, false), a.width + 3, false
	}
}
