package nn

import (
	"fmt"
	"strings"
)

// Summary renders a human-readable per-layer table of the model: types,
// hyper-parameters, output shapes, MACCs and parameters — the torchsummary
// view the examples and tools print.
func (m *Model) Summary() (string, error) {
	rows, err := m.Costs()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (input %s, %d classes)\n", m.Name, m.Input, m.Classes)
	fmt.Fprintf(&b, "%-4s %-24s %-12s %12s %12s\n", "#", "layer", "output", "MACCs", "params")
	var totalMACCs, totalParams, bytes int64
	for i, l := range m.Layers {
		r := rows[i]
		fmt.Fprintf(&b, "%-4d %-24s %-12s %12d %12d\n",
			i, l.String(), r.Out.String(), r.MACCs, r.Params)
		totalMACCs += r.MACCs
		totalParams += r.Params
		bytes += paramBytes(l, r.Params)
	}
	fmt.Fprintf(&b, "%-4s %-24s %-12s %12d %12d\n", "", "total", "", totalMACCs, totalParams)
	fmt.Fprintf(&b, "storage: %.2f MB\n", float64(bytes)/1e6)
	return b.String(), nil
}
