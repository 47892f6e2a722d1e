// Package spec implements FireMarshal workload descriptions (§III-A): the
// JSON/YAML configuration files users write, the option set of Table II,
// the PATH-like workload search order, recursive inheritance through the
// `base` option, and multi-node `jobs`. One table (options.go) declares
// every option with its decoder and its inheritance rule; a loaded
// Workload carries its merged Effective options into internal/core.
package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"firemarshal/internal/hostutil"
	"firemarshal/internal/yaml"
)

// FilePair is one entry of the `files` option: copy Src (host, relative to
// the workload dir) to Dst (guest absolute path).
type FilePair struct {
	Src string
	Dst string
}

// LinuxOpts customizes the kernel (Table II `linux`).
type LinuxOpts struct {
	// Source names a kernel source tree (a directory relative to the
	// workload dir, or a built-in source name).
	Source string
	// Config lists kernel configuration fragment files, merged in order.
	Config []string
	// Modules maps module names to source directories.
	Modules map[string]string
}

// FirmwareOpts customizes the firmware (Table II `firmware`).
type FirmwareOpts struct {
	// Kind selects "opensbi" or "bbl".
	Kind string
	// BuildArgs are passed to the firmware build.
	BuildArgs []string
}

// TestingOpts configures the `test` command.
type TestingOpts struct {
	// RefDir holds reference outputs to compare against.
	RefDir string
	// TimeoutSec bounds the test run.
	TimeoutSec int
	// Strip removes timestamp-like tokens before comparison.
	Strip bool
}

// Workload is one parsed (not yet inherited) workload description.
type Workload struct {
	Name    string
	Base    string
	Board   string
	Distro  string // "br", "fedora", or "bare"; normally set by base workloads
	Overlay string
	Files   []FilePair

	HostInit    string
	GuestInit   string
	Run         string
	Command     string
	Outputs     []string
	PostRunHook string

	RootfsSize string
	Bin        string
	Img        string
	NoDisk     *bool // nil when the level leaves it unset

	Linux    *LinuxOpts
	Firmware *FirmwareOpts

	Spike     string
	SpikeArgs []string
	QemuArgs  []string

	Jobs []*Workload

	Testing *TestingOpts

	// Dir is the directory containing the workload file; host paths are
	// relative to it.
	Dir string

	// Effective is the workload with its chain merged, set by Resolve
	// when Loader.Load has linked the chain.
	Effective *Effective

	// parent is the resolved base workload.
	parent *Workload

	// raw preserves the source document for hashing.
	raw string
}

// Hash fingerprints the workload document and its ancestry for dependency
// tracking. It is content-based — the host directory the document lives in
// is deliberately excluded, so identical workloads in different checkouts
// produce identical hashes and can share artifact-cache entries (referenced
// host files are hashed separately as file dependencies). Every build task
// keys on it whole, so any byte of a level's file re-runs every task under
// it; keying each task on only the Effective fields it reads would move
// the pinned task keys and the benchmark's leaf-edit golden, and waits for
// a change that re-records that golden.
func (w *Workload) Hash() string {
	parts := []string{w.raw, w.Name}
	if w.parent != nil {
		parts = append(parts, w.parent.Hash())
	}
	return hostutil.HashStrings(parts...)
}

// HostPath resolves a host-side relative path against the workload dir.
func (w *Workload) HostPath(p string) string {
	if p == "" || filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(w.Dir, p)
}

// ParseFile reads and parses a workload file (JSON or YAML by extension).
func ParseFile(path string) (*Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	w, err := Parse(data, strings.HasSuffix(path, ".yaml") || strings.HasSuffix(path, ".yml"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	w.Dir = filepath.Dir(path)
	if w.Name == "" {
		base := filepath.Base(path)
		w.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return w, nil
}

// Parse decodes a workload document.
func Parse(data []byte, isYAML bool) (*Workload, error) {
	var doc any
	if isYAML {
		v, err := yaml.Parse(data)
		if err != nil {
			return nil, err
		}
		doc = v
	} else {
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("spec: bad JSON: %w", err)
		}
	}
	m, ok := doc.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("spec: workload document must be a mapping, got %T", doc)
	}
	w, err := fromMap(m)
	if err != nil {
		return nil, err
	}
	w.raw = string(data)
	return w, nil
}

func fromMap(m map[string]any) (*Workload, error) {
	w := &Workload{}
	if err := decodeRows(w, options, "", m); err != nil {
		return nil, err
	}
	if w.Run != "" && w.Command != "" {
		return nil, fmt.Errorf("spec: run and command are mutually exclusive")
	}
	return w, nil
}

// decodeRows reads the options of rows that m sets into w, in table order.
// prefix qualifies a sub-map's keys in messages ("linux.").
func decodeRows(w *Workload, rows []option, prefix string, m map[string]any) error {
	for k := range m {
		if !slices.ContainsFunc(rows, func(o option) bool { return o.key == k }) {
			if prefix == "" {
				return fmt.Errorf("spec: unknown option %q (known options: %s)", k, strings.Join(sortedKeys(knownKeys), ", "))
			}
			return fmt.Errorf("spec: unknown %s option %q", strings.TrimSuffix(prefix, "."), k)
		}
	}
	for i := range rows {
		if v, ok := m[rows[i].key]; ok {
			if err := rows[i].decode(w, prefix+rows[i].key, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// decode stores the document value v of option o (named name in messages)
// into level w; the type of o's field says how v is read.
func (o *option) decode(w *Workload, name string, v any) error {
	switch p := o.at(w).(type) {
	case *string:
		if v == nil {
			return nil
		}
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("spec: option %q must be a string, got %T", o.key, v)
		}
		*p = s
	case *[]string:
		if name == "linux.config" {
			return decodeFragments(p, v)
		}
		list, err := stringList(o.key, v)
		*p = list
		return err
	case *bool:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("spec: %s must be a boolean", name)
		}
		*p = b
	case **bool: // a nearest-wins switch: nil is "this level leaves it unset"
		if v == nil {
			return nil
		}
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("spec: %s must be a boolean", name)
		}
		*p = &b
	case *int: // testing.timeout, whole seconds of guest time
		f, ok := v.(float64)
		if !ok || f < 0 {
			return fmt.Errorf("spec: %s must be a non-negative number", name)
		}
		if f != math.Trunc(f) || f > maxTimeoutSec {
			return fmt.Errorf("spec: %s must be a whole number of seconds no larger than %d", name, uint64(maxTimeoutSec))
		}
		*p = int(f)
	case *map[string]string:
		mm, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("spec: %s must be a mapping", name)
		}
		*p = map[string]string{}
		for k, src := range mm {
			s, ok := src.(string)
			if !ok {
				return fmt.Errorf("spec: %s values must be strings", name)
			}
			(*p)[k] = s
		}
	case *[]FilePair:
		list, ok := v.([]any)
		if !ok {
			return fmt.Errorf("spec: files must be a list")
		}
		for _, item := range list {
			pair, ok := item.([]any)
			if !ok || len(pair) != 2 {
				return fmt.Errorf("spec: each files entry must be a [src, dst] pair")
			}
			src, ok1 := pair[0].(string)
			dst, ok2 := pair[1].(string)
			if !ok1 || !ok2 {
				return fmt.Errorf("spec: files entries must be strings")
			}
			*p = append(*p, FilePair{Src: src, Dst: dst})
		}
	case *[]*Workload:
		return decodeJobs(p, v)
	default: // a sub-map
		sub, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("spec: %s must be a mapping", name)
		}
		switch b := p.(type) {
		case **LinuxOpts:
			*b = &LinuxOpts{}
		case **FirmwareOpts:
			*b = &FirmwareOpts{}
		case **TestingOpts:
			*b = &TestingOpts{Strip: true}
		}
		return decodeRows(w, o.fields, name+".", sub)
	}
	return nil
}

func decodeJobs(jobs *[]*Workload, v any) error {
	list, ok := v.([]any)
	if !ok {
		return fmt.Errorf("spec: jobs must be a list")
	}
	for i, item := range list {
		jm, ok := item.(map[string]any)
		if !ok {
			return fmt.Errorf("spec: job %d must be a mapping", i)
		}
		jw, err := fromMap(jm)
		if err != nil {
			return fmt.Errorf("spec: job %d: %w", i, err)
		}
		if jw.Name == "" {
			return fmt.Errorf("spec: job %d has no name", i)
		}
		if len(jw.Jobs) > 0 {
			return fmt.Errorf("spec: job %q: jobs cannot nest", jw.Name)
		}
		*jobs = append(*jobs, jw)
	}
	return nil
}

// decodeFragments reads linux.config: one fragment or a list of them.
func decodeFragments(frags *[]string, v any) error {
	switch cv := v.(type) {
	case nil:
	case string:
		*frags = []string{cv}
	case []any:
		for _, c := range cv {
			s, ok := c.(string)
			if !ok {
				return fmt.Errorf("spec: linux.config entries must be strings")
			}
			*frags = append(*frags, s)
		}
	default:
		return fmt.Errorf("spec: linux.config must be a string or list")
	}
	return nil
}

func stringList(key string, v any) ([]string, error) {
	if v == nil {
		return nil, nil
	}
	list, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("spec: option %q must be a list", key)
	}
	out := make([]string, 0, len(list))
	for _, item := range list {
		s, ok := item.(string)
		if !ok {
			return nil, fmt.Errorf("spec: option %q entries must be strings", key)
		}
		out = append(out, s)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ParseRootfsSize converts "3GiB"/"512MiB"/"4096" style sizes to bytes.
func ParseRootfsSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	for _, suf := range []struct {
		name string
		mul  int64
	}{
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mul
			upper = strings.TrimSuffix(upper, suf.name)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spec: bad rootfs-size %q", s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("spec: rootfs-size must be positive")
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("spec: rootfs-size %q is too large", s)
	}
	return n * mult, nil
}
