package monoid

// ArenaCap reports the capacity of a fold table's key arena.
func ArenaCap(t FoldTable) int { return t.(interface{ arenaCap() int }).arenaCap() }

func (t *foldTable[S]) arenaCap() int { return cap(t.keys) }
