package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Loader locates and resolves workloads. Lookup follows "a search order
// similar to the $PATH variable in a Unix shell" (§III-B.1): each directory
// in SearchPath is probed for <name>.json / <name>.yaml, then built-in
// workloads (provided by boards) are consulted.
type Loader struct {
	// SearchPath lists workload directories in priority order.
	SearchPath []string

	builtins map[string]*Workload
}

// NewLoader creates a loader with the given search path.
func NewLoader(searchPath ...string) *Loader {
	return &Loader{SearchPath: searchPath, builtins: map[string]*Workload{}}
}

// RegisterBuiltin adds a board-provided base workload (e.g. br-base).
func (l *Loader) RegisterBuiltin(w *Workload) error {
	if w.Name == "" {
		return fmt.Errorf("spec: builtin workload without name")
	}
	if _, dup := l.builtins[w.Name]; dup {
		return fmt.Errorf("spec: duplicate builtin %q", w.Name)
	}
	l.builtins[w.Name] = w
	return nil
}

// Builtins lists registered builtin workload names, sorted.
func (l *Loader) Builtins() []string {
	return sortedKeys2(l.builtins)
}

func sortedKeys2(m map[string]*Workload) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Load locates nameOrPath, parses it, resolves its inheritance chain, and
// resolves its jobs.
func (l *Loader) Load(nameOrPath string) (*Workload, error) {
	return l.load(nameOrPath, map[string]bool{})
}

func (l *Loader) load(nameOrPath string, visiting map[string]bool) (*Workload, error) {
	w, err := l.locate(nameOrPath)
	if err != nil {
		return nil, err
	}
	key := w.Name + "\x00" + w.Dir
	if visiting[key] {
		return nil, fmt.Errorf("spec: inheritance cycle through workload %q", w.Name)
	}
	visiting[key] = true
	defer delete(visiting, key)

	if w.Base != "" {
		parent, perr := l.load(w.Base, visiting)
		if perr != nil {
			return nil, fmt.Errorf("spec: workload %q: base: %w", w.Name, perr)
		}
		w.parent = parent
	}
	if err := l.resolveJobs(w, visiting); err != nil {
		return nil, err
	}
	return w, nil
}

// locate finds the workload document by explicit path, search path, or
// builtin registry. A fresh Workload is returned each time (resolution
// mutates parent pointers).
func (l *Loader) locate(nameOrPath string) (*Workload, error) {
	if strings.HasSuffix(nameOrPath, ".json") || strings.HasSuffix(nameOrPath, ".yaml") ||
		strings.HasSuffix(nameOrPath, ".yml") {
		if _, err := os.Stat(nameOrPath); err == nil {
			return ParseFile(nameOrPath)
		}
		// Relative config names also search the path.
		for _, dir := range l.SearchPath {
			p := filepath.Join(dir, nameOrPath)
			if _, err := os.Stat(p); err == nil {
				return ParseFile(p)
			}
		}
		return nil, fmt.Errorf("spec: workload file %q not found (search path: %v)", nameOrPath, l.SearchPath)
	}
	for _, dir := range l.SearchPath {
		for _, ext := range []string{".json", ".yaml", ".yml"} {
			p := filepath.Join(dir, nameOrPath+ext)
			if _, err := os.Stat(p); err == nil {
				return ParseFile(p)
			}
		}
	}
	if b, ok := l.builtins[nameOrPath]; ok {
		cp := *b
		return &cp, nil
	}
	return nil, fmt.Errorf("spec: workload %q not found (search path: %v; builtins: %v)",
		nameOrPath, l.SearchPath, l.Builtins())
}

// resolveJobs applies the rule of §III-A.1: "Jobs are implicitly based on
// the top level workload description and follow all inheritance rules."
func (l *Loader) resolveJobs(w *Workload, visiting map[string]bool) error {
	seen := map[string]bool{}
	for _, job := range w.Jobs {
		if seen[job.Name] {
			return fmt.Errorf("spec: duplicate job name %q", job.Name)
		}
		seen[job.Name] = true
		job.Dir = w.Dir
		if job.Base == "" {
			job.parent = w
		} else {
			parent, err := l.load(job.Base, visiting)
			if err != nil {
				return fmt.Errorf("spec: job %q: base: %w", job.Name, err)
			}
			job.parent = parent
		}
	}
	return nil
}

// ---- effective (inherited) option accessors ----

// EffectiveDistro walks the chain for the distribution ("br", "fedora",
// "bare").
func (w *Workload) EffectiveDistro() string {
	for c := w; c != nil; c = c.parent {
		if c.Distro != "" {
			return c.Distro
		}
	}
	return ""
}

// EffectiveBoard walks the chain for the target board.
func (w *Workload) EffectiveBoard() string {
	for c := w; c != nil; c = c.parent {
		if c.Board != "" {
			return c.Board
		}
	}
	return ""
}

// EffectiveFirmware walks the chain for the firmware kind.
func (w *Workload) EffectiveFirmware() string {
	for c := w; c != nil; c = c.parent {
		if c.Firmware != nil && c.Firmware.Kind != "" {
			return c.Firmware.Kind
		}
	}
	return ""
}

// EffectiveSpike walks the chain for the custom functional simulator.
func (w *Workload) EffectiveSpike() string {
	for c := w; c != nil; c = c.parent {
		if c.Spike != "" {
			return c.Spike
		}
	}
	return ""
}

// EffectiveRootfsSize walks the chain for the image size limit.
func (w *Workload) EffectiveRootfsSize() string {
	for c := w; c != nil; c = c.parent {
		if c.RootfsSize != "" {
			return c.RootfsSize
		}
	}
	return ""
}

// ConfigFragments collects kernel config fragment paths, parents first, as
// the merge order requires (§III-B.4a).
func (w *Workload) ConfigFragments() []string {
	var out []string
	for _, c := range w.Chain() {
		if c.Linux == nil {
			continue
		}
		for _, frag := range c.Linux.Config {
			out = append(out, c.HostPath(frag))
		}
	}
	return out
}

// Modules collects kernel modules across the chain (children override
// parents' module of the same name).
func (w *Workload) Modules() map[string]string {
	out := map[string]string{}
	for _, c := range w.Chain() {
		if c.Linux == nil {
			continue
		}
		for name, src := range c.Linux.Modules {
			out[name] = c.HostPath(src)
		}
	}
	return out
}

// EffectiveSpikeArgs concatenates simulator args across the chain.
func (w *Workload) EffectiveSpikeArgs() []string {
	var out []string
	for _, c := range w.Chain() {
		out = append(out, c.SpikeArgs...)
	}
	return out
}

// EffectiveQemuArgs concatenates simulator args across the chain.
func (w *Workload) EffectiveQemuArgs() []string {
	var out []string
	for _, c := range w.Chain() {
		out = append(out, c.QemuArgs...)
	}
	return out
}
