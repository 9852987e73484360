// Package exp is the declarative experiment layer on top of the sim
// harness: a registry of named experiments with typed, defaulted parameters,
// a common Result encoding pair (Text for the paper-shaped tables, JSON for
// machine-readable output), a per-run reproducibility manifest carrying the
// resolved configuration, and first-class parameter sweeps that expand a
// grid into runs executed through the sim worker pool with deterministic,
// order-independent result placement.
//
// The registry replaces the historical zoo of bespoke entry points — one
// RunXxx/FormatXxx pair and one hardcoded -run switch case per study — with
// one surface: cmd/experiments lists, describes, runs and sweeps whatever is
// registered here, and a new study is one Register call in catalog.go.
package exp

import (
	"fmt"
	"strings"

	"widx/internal/sim"
)

// Experiment is one registered study: a reproduction of a figure, a table
// or an ablation of the paper, or a new sweep-shaped study built on the
// same harness. The catalog (and tests) build one with NewExperiment.
type Experiment struct {
	name     string
	describe string
	params   []ParamSpec
	// parsers[i] parses the value of params[i] (Declare).
	parsers []func(string) (any, error)
	run     RunFunc
}

// RunFunc runs an experiment at a resolved configuration and the parsed
// values of its declared parameters.
type RunFunc func(cfg sim.Config, v Values) (Result, error)

// Name is the canonical registry name ("kernel", "cmp", ...).
func (e *Experiment) Name() string { return e.name }

// Describe is a one-paragraph description of what the experiment measures
// and which paper artifact it reproduces.
func (e *Experiment) Describe() string { return e.describe }

// Params declares the experiment-specific parameters and their defaults.
// Common config parameters are accepted by every experiment and are not
// repeated here (AllParams lists both).
func (e *Experiment) Params() []ParamSpec { return e.params }

// values parses every declared parameter of a resolved parameter set.
func (e *Experiment) values(p Params) (Values, error) {
	v := make(Values, len(e.params))
	for i, s := range e.params {
		x, err := e.parsers[i](p[s.Key])
		if err != nil {
			return nil, paramError(s.Key, p[s.Key], err)
		}
		v[i] = x
	}
	return v, nil
}

// Run executes the experiment at a fully resolved configuration and
// parameter set.
func (e *Experiment) Run(cfg sim.Config, p Params) (Result, error) {
	v, err := e.values(p)
	if err != nil {
		return nil, err
	}
	return e.run(cfg, v)
}

// Result is the common encoding pair every experiment returns: the
// fixed-width text report in the shape of the paper's figures, and the JSON
// payload embedded in the run manifest.
type Result interface {
	Text() string
	JSON() ([]byte, error)
}

// NewExperiment builds an Experiment. declare declares the experiment's
// parameters on it (Declare) and returns the run function, which reads
// them through the handles Declare returned.
func NewExperiment(name, describe string, declare func(e *Experiment) RunFunc) *Experiment {
	e := &Experiment{name: name, describe: describe}
	e.run = declare(e)
	return e
}

// The registry. Registration happens from init (catalog.go) and tests;
// lookups happen afterwards, so no locking is needed.
var (
	// ordered keeps the canonical registration order — the order -run all
	// executes and -list prints.
	ordered []*Experiment
	// byName resolves lowercase primary names and aliases to experiments.
	byName = map[string]*Experiment{}
	// aliasesOf lists the aliases of each primary name, in registration
	// order.
	aliasesOf = map[string][]string{}
)

// Register adds an experiment to the registry under its name and the given
// aliases (the historical -run spellings, e.g. "fig8" for "kernel"). Names
// are case-insensitive. Duplicate names panic: they are programming errors
// in the catalog, not runtime conditions.
func Register(e *Experiment, aliases ...string) {
	names := append([]string{e.Name()}, aliases...)
	for _, n := range names {
		key := strings.ToLower(n)
		if key == "" || key == "all" {
			panic(fmt.Sprintf("exp: experiment name %q is reserved", n))
		}
		if _, dup := byName[key]; dup {
			panic(fmt.Sprintf("exp: duplicate experiment name %q", n))
		}
		byName[key] = e
	}
	ordered = append(ordered, e)
	aliasesOf[strings.ToLower(e.Name())] = aliases
}

// Lookup resolves a name or alias, case-insensitively.
func Lookup(name string) (*Experiment, bool) {
	e, ok := byName[strings.ToLower(name)]
	return e, ok
}

// Names returns the primary experiment names in canonical (registration)
// order — the order -run all executes.
func Names() []string {
	out := make([]string, len(ordered))
	for i, e := range ordered {
		out[i] = e.Name()
	}
	return out
}

// Aliases returns the aliases registered for a primary name.
func Aliases(name string) []string {
	return aliasesOf[strings.ToLower(name)]
}

// List renders the one-line experiment listing (-list).
func List() string {
	var b strings.Builder
	for _, e := range ordered {
		name := e.Name()
		if al := Aliases(name); len(al) > 0 {
			name += " (" + strings.Join(al, ", ") + ")"
		}
		summary, _, _ := strings.Cut(e.Describe(), "\n")
		fmt.Fprintf(&b, "%-28s %s\n", name, summary)
	}
	return b.String()
}

// Describe renders the full catalog entry for one experiment — description,
// aliases, and every accepted parameter with its default — or, for "all" or
// an empty name, the whole catalog. The same text generates the README
// "Experiment catalog" section.
func Describe(name string) (string, error) {
	if name == "" || strings.EqualFold(name, "all") {
		var b strings.Builder
		for i, e := range ordered {
			if i > 0 {
				b.WriteString("\n")
			}
			b.WriteString(describeOne(e))
		}
		return b.String(), nil
	}
	e, ok := Lookup(name)
	if !ok {
		return "", fmt.Errorf("exp: unknown experiment %q", name)
	}
	return describeOne(e), nil
}

func describeOne(e *Experiment) string {
	var b strings.Builder
	header := e.Name()
	if al := Aliases(e.Name()); len(al) > 0 {
		header += " (aliases: " + strings.Join(al, ", ") + ")"
	}
	b.WriteString(header + "\n")
	for _, line := range strings.Split(strings.TrimRight(e.Describe(), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	specs := e.Params()
	if len(specs) == 0 {
		b.WriteString("  parameters: none beyond the common config knobs\n")
	} else {
		b.WriteString("  parameters:\n")
		for _, s := range specs {
			def := s.Default
			if def == "" {
				def = "(inherit)"
			}
			fmt.Fprintf(&b, "    %-14s default %-22s %s\n", s.Key, def, s.Help)
		}
	}
	return b.String()
}
