package monoid

// ArenaCap reports the capacity of a fold table's key arenas.
func ArenaCap(t FoldTable) int { return t.(interface{ arenaCap() int }).arenaCap() }

func (t *foldTable[S]) arenaCap() int { return t.keys.ArenaCap() }
