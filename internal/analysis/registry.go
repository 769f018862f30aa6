package analysis

// All returns the full whisperlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AllocBudget,
		CtxFlow,
		DetRand,
		ErrIdent,
		LockOrder,
		SpanEnd,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
