package analysis

import "go/types"

// FactKind names one category of exported fact. Facts are how an analyzer
// communicates across package boundaries without x/tools: an Export pass
// over a dependency package attaches facts to its types.Objects, and the
// diagnostic pass over an importing package reads them through the same
// object identities go/types resolves imports to.
type FactKind string

const (
	// FactBlocking marks a function or method that performs conn I/O
	// without bounding it by a deadline itself, delegating the deadline
	// responsibility to its callers. The deadline analyzer exports it.
	FactBlocking FactKind = "blocking"
)

// FactSet accumulates facts keyed by defining object. It is populated
// serially during the export phase (packages visited in dependency order)
// and read-only during the diagnostic phase, which is what makes the
// per-package diagnostic fan-out race-free.
type FactSet struct {
	m map[types.Object]map[FactKind]bool
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{m: make(map[types.Object]map[FactKind]bool)}
}

// ExportFact records kind for obj. Nil objects are ignored.
func (fs *FactSet) ExportFact(obj types.Object, kind FactKind) {
	if obj == nil {
		return
	}
	kinds := fs.m[obj]
	if kinds == nil {
		kinds = make(map[FactKind]bool)
		fs.m[obj] = kinds
	}
	kinds[kind] = true
}

// HasFact reports whether kind was exported for obj.
func (fs *FactSet) HasFact(obj types.Object, kind FactKind) bool {
	if obj == nil {
		return false
	}
	return fs.m[obj][kind]
}

// Len reports how many objects carry at least one fact (for tests).
func (fs *FactSet) Len() int { return len(fs.m) }
