package experiments

import "fmt"

// Builder produces one experiment's table.
type Builder func() (Table, error)

// registry lists every experiment in report order with its builder. IDs
// follow the reconstructed evaluation's numbering (see DESIGN.md §4).
var registry = []struct {
	id    string
	build Builder
}{
	{"t1", TableT1},
	{"f1", FigF1},
	{"f2", FigF2},
	{"f3", FigF3},
	{"f4", FigF4},
	{"f5", FigF5},
	{"f6", FigF6},
	{"t2", TableT2},
	{"f7", FigF7},
	{"f8", FigF8},
	{"f9", FigF9},
	{"f10", FigF10},
	{"f11", FigF11},
	{"f12", FigF12},
	{"t3", TableT3},
	{"f13", FigF13},
	{"f14", FigF14},
	{"f15", FigF15},
	{"f16", FigF16},
	{"f17", FigF17},
	{"f18", FigF18},
	{"f19", FigF19},
	{"t4", TableT4},
	{"t5", TableT5},
	{"t6", TableT6},
	{"f20", FigF20},
	{"f21", FigF21},
	{"t7", TableT7},
	{"t8", TableT8},
	{"t9", TableT9},
}

// IDs returns all experiment IDs in report order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Get returns the builder for an experiment ID.
func Get(id string) (Builder, error) {
	for _, e := range registry {
		if e.id == id {
			return e.build, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
}
