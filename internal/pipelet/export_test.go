package pipelet

// Tail returns the last table of the pipelet.
func (p *Pipelet) Tail() string { return p.Tables[len(p.Tables)-1] }

// Of returns the pipelet containing the table, or nil.
func (part *Partition) Of(table string) *Pipelet {
	if i, ok := part.ByTable[table]; ok {
		return part.Pipelets[i]
	}
	return nil
}
