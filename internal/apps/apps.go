// Package apps aggregates the six MATCH proxy applications behind a
// registry the harness instantiates from.
package apps

import (
	"fmt"
	"sort"

	"match/internal/apps/amg"
	"match/internal/apps/appkit"
	"match/internal/apps/comd"
	"match/internal/apps/hpccg"
	"match/internal/apps/lulesh"
	"match/internal/apps/minife"
	"match/internal/apps/minivite"
)

// Factory creates a fresh per-rank application instance.
type Factory func() appkit.App

var registry = map[string]Factory{
	"AMG":      func() appkit.App { return amg.New() },
	"CoMD":     func() appkit.App { return comd.New() },
	"HPCCG":    func() appkit.App { return hpccg.New() },
	"LULESH":   func() appkit.App { return lulesh.New() },
	"miniFE":   func() appkit.App { return minife.New() },
	"miniVite": func() appkit.App { return minivite.New() },
}

// Names returns the registered application names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the factory for a registered application.
func Lookup(name string) (Factory, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return f, nil
}

// Register adds a user-provided application to the suite, enabling the
// paper's §V-E extension path ("we encourage programmers to add new HPC
// applications to MATCH").
func Register(name string, f Factory) error {
	if _, dup := registry[name]; dup {
		return fmt.Errorf("apps: %q already registered", name)
	}
	registry[name] = f
	return nil
}

// Unregister removes an application added by Register. A test that
// registers a fixture app removes it again, so no other sweep sees it.
func Unregister(name string) { delete(registry, name) }
