package governor

import "fmt"

// New returns a fresh governor by cpufreq name.
func New(name string) (Governor, error) {
	switch name {
	case "performance":
		return &pinned{name: name, top: true}, nil
	case "powersave":
		return &pinned{name: name}, nil
	case "ondemand":
		return newOndemand(), nil
	case "conservative":
		return newConservative(), nil
	case "interactive":
		return newInteractive(), nil
	case "schedutil":
		return newSchedutil(), nil
	default:
		return nil, fmt.Errorf("governor: unknown name %q", name)
	}
}

// BaselineNames lists the stock governors compared against in the
// evaluation, in report order.
func BaselineNames() []string {
	return []string{"performance", "powersave", "ondemand", "conservative", "interactive", "schedutil"}
}
