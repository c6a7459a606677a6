package sim

// execFused evaluates a superinstruction (two original operations per
// dispatch; callers account OpsEvaluated accordingly). All fused forms
// are narrow and unsigned by construction (fuse.go only pairs kNarrow
// instructions).
func (m *machine) execFused(in *instr) {
	t := m.t
	switch in.code {
	case IFCmpMux:
		var sel bool
		switch ICode(in.p0) {
		case IEq:
			sel = t[in.a] == t[in.b]
		case INeq:
			sel = t[in.a] != t[in.b]
		case ILt:
			sel = t[in.a] < t[in.b]
		case ILeq:
			sel = t[in.a] <= t[in.b]
		case IGt:
			sel = t[in.a] > t[in.b]
		default: // IGeq
			sel = t[in.a] >= t[in.b]
		}
		if sel {
			t[in.dst] = t[in.c] & in.dmask
		} else {
			t[in.dst] = t[in.mem] & in.dmask
		}
	case IFNotAnd:
		t[in.dst] = ^t[in.a] & t[in.b] & in.dmask
	case IFAddTail:
		t[in.dst] = (t[in.a] + t[in.b]) & in.dmask
	case IFSubTail:
		t[in.dst] = (t[in.a] - t[in.b]) & in.dmask
	}
}
