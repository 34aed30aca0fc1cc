package modelcheck

import (
	"fmt"
	"strings"

	"tusim/internal/config"
	"tusim/internal/litmus"
)

// This file is the one front end of a litmus check: tuscheck's flags
// and tusd's litmus jobs name programs, mechanisms and a budget the
// same way.

// DefaultMechs is the mechanism list a check runs when none is named.
const DefaultMechs = "base,CSB,TUS"

// SelectTests resolves comma-separated suite program names; an empty
// spec is the whole suite.
func SelectTests(spec string) ([]litmus.Test, error) {
	all := litmus.Tests()
	if spec == "" {
		return all, nil
	}
	var out []litmus.Test
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		lt, ok := litmus.ByName(name)
		if !ok {
			names := make([]string, len(all))
			for i, t := range all {
				names[i] = t.Name
			}
			return nil, fmt.Errorf("unknown litmus program %q (suite: %s)", name, strings.Join(names, ","))
		}
		out = append(out, lt)
	}
	return out, nil
}

// SelectMechs resolves comma-separated mechanism names, or "all" for
// every mechanism.
func SelectMechs(spec string) ([]config.Mechanism, error) {
	if spec == "all" {
		return append([]config.Mechanism(nil), config.Mechanisms...), nil
	}
	var out []config.Mechanism
	for _, name := range strings.Split(spec, ",") {
		m, err := config.ParseMechanism(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Budget is a check's exploration budget: the explorer's defaults (8
// skews, 8 decisions, 512 runs), or with smoke the CI budget (3, 4, 64).
func Budget(smoke bool) ExploreOpts {
	if smoke {
		return ExploreOpts{Skews: 3, MaxDecisions: 4, MaxRuns: 64}
	}
	return ExploreOpts{}
}
