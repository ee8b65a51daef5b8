package p4ir

// DecodeBinaryUnchecked is DecodeBinary without the closing Validate, for
// tests that decode programs whose references are deliberately broken.
var DecodeBinaryUnchecked = decodeBinary

// ReadSet returns the fields the action's source operands read, in
// primitive order, up to a drop: WriteSet's counterpart, which the
// dependency analysis computes in its own pass.
func (a *Action) ReadSet() []string {
	var out []string
	for _, p := range a.Primitives {
		in := p.Decode()
		if in.Kind == PrimDrop {
			break
		}
		for _, o := range in.Src {
			if o.Kind == OperandField {
				out = append(out, o.Field)
			}
		}
	}
	return out
}
