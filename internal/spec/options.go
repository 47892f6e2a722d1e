package spec

import (
	"math"
	"reflect"
	"slices"
)

// rule is how an option's value passes down the inheritance chain (§III-A).
type rule int

const (
	// own: the option belongs to the level that declares it and is not
	// inherited. A level's image starts as a copy of its parent's, so what
	// a parent's overlay, files or boot command put there is already in it.
	own rule = iota
	// nearest: the nearest level that sets the option wins.
	nearest
	// concat: every level's entries, parents first.
	concat
	// union: every level's entries, parents first, each entry once.
	union
	// mapOverride: every level's entries; per key the nearest level wins.
	mapOverride
)

var ruleNames = [...]string{own: "own", nearest: "nearest", concat: "concat", union: "union", mapOverride: "map-override"}

func (r rule) String() string { return ruleNames[r] }

// option is one row of Table II.
type option struct {
	key  string
	rule rule
	// at returns the option's field in one level. Its type is the option's
	// decoder: *string, *[]string, *bool, *int, *map[string]string,
	// *[]FilePair, *[]*Workload, or the **LinuxOpts, **FirmwareOpts or
	// **TestingOpts of a sub-map, whose own rows are fields.
	at func(w *Workload) any
	// into returns the Effective field an inherited option merges into.
	into func(e *Effective) any
	// hostPath marks values that name host files, resolved against the
	// directory of the level that declared them.
	hostPath bool
	fields   []option
}

// options is Table II, declared once: fromMap decodes by it, Resolve merges
// by it, and Describe lists a level's options in its order.
//
// A sub-map's rule is that of the block as a whole. The linux and firmware
// blocks are per level (a level that declares one builds its own boot
// binary), and their fields inherit by their own rules; the nearest
// testing block is taken whole.
var options = []option{
	{key: "name", at: func(w *Workload) any { return &w.Name }},
	{key: "base", at: func(w *Workload) any { return &w.Base }},
	{key: "board", rule: nearest, at: func(w *Workload) any { return &w.Board },
		into: func(e *Effective) any { return &e.Board }},
	{key: "distro", rule: nearest, at: func(w *Workload) any { return &w.Distro },
		into: func(e *Effective) any { return &e.Distro }},
	{key: "overlay", at: func(w *Workload) any { return &w.Overlay }},
	{key: "files", at: func(w *Workload) any { return &w.Files }},
	{key: "host-init", at: func(w *Workload) any { return &w.HostInit }},
	{key: "guest-init", at: func(w *Workload) any { return &w.GuestInit }},
	{key: "run", at: func(w *Workload) any { return &w.Run }},
	{key: "command", at: func(w *Workload) any { return &w.Command }},
	{key: "outputs", rule: union, at: func(w *Workload) any { return &w.Outputs },
		into: func(e *Effective) any { return &e.Outputs }},
	{key: "post-run-hook", rule: nearest, at: func(w *Workload) any { return &w.PostRunHook },
		into: func(e *Effective) any { return &e.PostRunHook }},
	{key: "rootfs-size", rule: nearest, at: func(w *Workload) any { return &w.RootfsSize },
		into: func(e *Effective) any { return &e.RootfsSize }},
	{key: "bin", at: func(w *Workload) any { return &w.Bin }},
	{key: "img", at: func(w *Workload) any { return &w.Img }},
	{key: "no-disk", at: func(w *Workload) any { return &w.NoDisk }},
	{key: "linux", at: func(w *Workload) any { return &w.Linux }, fields: []option{
		{key: "source", rule: nearest, hostPath: true, at: func(w *Workload) any { return &w.Linux.Source },
			into: func(e *Effective) any { return &e.LinuxSource }},
		{key: "config", rule: concat, hostPath: true, at: func(w *Workload) any { return &w.Linux.Config },
			into: func(e *Effective) any { return &e.ConfigFragments }},
		{key: "modules", rule: mapOverride, hostPath: true, at: func(w *Workload) any { return &w.Linux.Modules },
			into: func(e *Effective) any { return &e.Modules }},
	}},
	{key: "firmware", at: func(w *Workload) any { return &w.Firmware }, fields: []option{
		{key: "kind", rule: nearest, at: func(w *Workload) any { return &w.Firmware.Kind },
			into: func(e *Effective) any { return &e.FirmwareKind }},
		{key: "build-args", rule: concat, at: func(w *Workload) any { return &w.Firmware.BuildArgs },
			into: func(e *Effective) any { return &e.FirmwareArgs }},
	}},
	{key: "spike", rule: nearest, at: func(w *Workload) any { return &w.Spike },
		into: func(e *Effective) any { return &e.Spike }},
	{key: "spike-args", rule: concat, at: func(w *Workload) any { return &w.SpikeArgs },
		into: func(e *Effective) any { return &e.SpikeArgs }},
	{key: "qemu-args", rule: concat, at: func(w *Workload) any { return &w.QemuArgs },
		into: func(e *Effective) any { return &e.QemuArgs }},
	{key: "jobs", at: func(w *Workload) any { return &w.Jobs }},
	{key: "testing", rule: nearest, at: func(w *Workload) any { return &w.Testing },
		into: func(e *Effective) any { return &e.Testing }, fields: []option{
			// A host path: fold resolves it when it takes the block.
			{key: "refDir", at: func(w *Workload) any { return &w.Testing.RefDir }},
			{key: "timeout", at: func(w *Workload) any { return &w.Testing.TimeoutSec }},
			{key: "strip", at: func(w *Workload) any { return &w.Testing.Strip }},
		}},
}

// knownKeys is the table's top-level key set; unknown keys are rejected so
// workload files stay unambiguous.
var knownKeys = func() map[string]bool {
	keys := map[string]bool{}
	for _, o := range options {
		keys[o.key] = true
	}
	return keys
}()

// maxTimeoutSec is the largest testing.timeout whose cycle budget (guest
// seconds at the platform's 1 GHz clock) fits in a uint64.
const maxTimeoutSec = math.MaxUint64 / 1_000_000_000

// HostCommand is a host command line and the directory it runs in: that of
// the workload that declared it.
type HostCommand struct {
	Line string
	Dir  string
}

// Effective is a workload with its inheritance chain merged: every
// inherited option as its rule combines the levels, host paths resolved
// against the directory of the level that declared them. Options with rule
// own are read from the workload itself.
type Effective struct {
	// Levels is the chain, root base first, the workload itself last.
	Levels []*Workload

	Board       string
	Distro      string // "br", "fedora", or "bare"
	RootfsSize  string
	Outputs     []string
	PostRunHook HostCommand
	Spike       string
	SpikeArgs   []string
	QemuArgs    []string

	LinuxSource     string
	ConfigFragments []string // kernel config fragments, parents first (§III-B.4a)
	Modules         map[string]string
	FirmwareKind    string
	FirmwareArgs    []string

	// Testing is the nearest testing block, its RefDir a host path.
	Testing *TestingOpts
}

// Resolve merges w's inheritance chain into w.Effective, folding the
// levels root first by the option table's rules. Loader.Load calls it for
// each workload and job once their bases are linked.
func Resolve(w *Workload) *Effective {
	e := &Effective{Modules: map[string]string{}}
	for c := w; c != nil; c = c.parent {
		e.Levels = append(e.Levels, c)
	}
	slices.Reverse(e.Levels)
	for _, c := range e.Levels {
		for i := range options {
			options[i].fold(e, c)
		}
	}
	w.Effective = e
	return e
}

// fold merges level w's value of o into e.
func (o *option) fold(e *Effective, w *Workload) {
	if o.fields != nil && !isSet(o.at(w)) {
		return
	}
	path := func(s string) string {
		if o.hostPath {
			return w.HostPath(s)
		}
		return s
	}
	switch o.rule {
	case own:
		for i := range o.fields {
			o.fields[i].fold(e, w)
		}
	case nearest:
		switch dst := o.into(e).(type) {
		case *string:
			if s := *o.at(w).(*string); s != "" {
				*dst = path(s)
			}
		case *HostCommand:
			if s := *o.at(w).(*string); s != "" {
				*dst = HostCommand{Line: s, Dir: w.Dir}
			}
		case **TestingOpts:
			t := **o.at(w).(**TestingOpts)
			t.RefDir = w.HostPath(t.RefDir)
			*dst = &t
		}
	case concat, union:
		dst := o.into(e).(*[]string)
		for _, s := range *o.at(w).(*[]string) {
			if s = path(s); o.rule == concat || !slices.Contains(*dst, s) {
				*dst = append(*dst, s)
			}
		}
	case mapOverride:
		dst := o.into(e).(*map[string]string)
		for k, s := range *o.at(w).(*map[string]string) {
			(*dst)[k] = path(s)
		}
	}
}

// isSet reports whether a level's field (an option's at) holds a value.
func isSet(p any) bool {
	v := reflect.ValueOf(p).Elem()
	if v.Kind() == reflect.Slice || v.Kind() == reflect.Map {
		return v.Len() > 0
	}
	return !v.IsZero()
}

// Describe lists the options this level declares, in table order, a
// nearest-wins text option with its value. Name, base and jobs are left
// out: they are the shape of the chain, which the caller draws.
func (w *Workload) Describe() []string {
	var out []string
	for _, o := range options {
		p := o.at(w)
		switch {
		case o.key == "name" || o.key == "base" || o.key == "jobs" || !isSet(p):
		case o.rule == nearest && o.fields == nil:
			out = append(out, o.key+"="+*p.(*string))
		default:
			out = append(out, o.key)
		}
	}
	return out
}
