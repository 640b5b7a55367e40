package governor

import "fmt"

// New returns a fresh default-configured governor by cpufreq name.
func New(name string) (Governor, error) {
	switch name {
	case "performance":
		return &pinned{name: name, top: true}, nil
	case "powersave":
		return &pinned{name: name}, nil
	case "ondemand":
		return NewOndemand(DefaultOndemandConfig())
	case "conservative":
		return NewConservative(DefaultConservativeConfig())
	case "interactive":
		return NewInteractive(DefaultInteractiveConfig())
	case "schedutil":
		return NewSchedutil(DefaultSchedutilConfig())
	default:
		return nil, fmt.Errorf("governor: unknown name %q", name)
	}
}

// BaselineNames lists the stock governors compared against in the
// evaluation, in report order.
func BaselineNames() []string {
	return []string{"performance", "powersave", "ondemand", "conservative", "interactive", "schedutil"}
}
