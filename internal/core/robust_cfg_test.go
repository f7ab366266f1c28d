package core

import "github.com/edgeai/fedml/internal/dro"

// perturbConfig is the ascent configuration a node derives from r.
func perturbConfig(r RobustConfig) dro.PerturbConfig {
	return dro.PerturbConfig{
		Lambda: r.Lambda, Nu: r.Nu, Steps: r.Ta,
		ClampMin: r.ClampMin, ClampMax: r.ClampMax,
	}
}
