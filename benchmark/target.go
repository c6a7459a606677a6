package main

import (
	"errors"
	"fmt"

	"essent"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// target is the testbench surface a workload drives. *essent.Sim
// implements it for timed runs; layerTarget implements it over the
// internal simulator that a traced run builds layer by layer.
type target interface {
	Poke(name string, v uint64) error
	Peek(name string) (uint64, error)
	PokeMem(mem string, addr int, v uint64) error
	PeekMem(mem string, addr int) (uint64, error)
	Step(n int) error
	Stats() essent.Stats
	VecInfo() essent.VecStats
}

// isStop reports whether err is the design's stop(), from either side
// of the facade.
func isStop(err error) bool {
	var fs *essent.StoppedError
	var ss *sim.StopError
	return errors.As(err, &fs) || errors.As(err, &ss)
}

// layerTarget resolves names against the design the traced run compiled.
type layerTarget struct {
	s sim.Simulator
	d *netlist.Design
}

func (t layerTarget) sig(name string) (netlist.SignalID, error) {
	id, ok := t.d.SignalByName(name)
	if !ok {
		return 0, fmt.Errorf("no signal %q", name)
	}
	return id, nil
}

func (t layerTarget) mem(name string) (int, error) {
	for i := range t.d.Mems {
		if t.d.Mems[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no memory %q", name)
}

func (t layerTarget) Poke(name string, v uint64) error {
	id, err := t.sig(name)
	if err == nil {
		t.s.Poke(id, v)
	}
	return err
}

func (t layerTarget) Peek(name string) (uint64, error) {
	id, err := t.sig(name)
	if err != nil {
		return 0, err
	}
	return t.s.Peek(id), nil
}

func (t layerTarget) PokeMem(mem string, addr int, v uint64) error {
	m, err := t.mem(mem)
	if err == nil {
		t.s.PokeMem(m, addr, v)
	}
	return err
}

func (t layerTarget) PeekMem(mem string, addr int) (uint64, error) {
	m, err := t.mem(mem)
	if err != nil {
		return 0, err
	}
	return t.s.PeekMem(m, addr), nil
}

func (t layerTarget) Step(n int) error { return t.s.Step(n) }

func (t layerTarget) Stats() essent.Stats {
	st := t.s.Stats()
	return essent.Stats{Cycles: st.Cycles, OpsEvaluated: st.OpsEvaluated,
		PartChecks: st.PartChecks, InputChecks: st.InputChecks,
		PartEvals: st.PartEvals, OutputCompares: st.OutputCompares,
		Wakes: st.Wakes, Events: st.Events, WorkerPanics: st.WorkerPanics}
}

func (t layerTarget) VecInfo() essent.VecStats {
	vv, ok := t.s.(interface{ VecInfo() sim.VecStats })
	if !ok {
		return essent.VecStats{}
	}
	v := vv.VecInfo()
	return essent.VecStats{Groups: v.Groups, VecParts: v.VecParts,
		GroupEvals: v.GroupEvals, LaneEvals: v.LaneEvals}
}
