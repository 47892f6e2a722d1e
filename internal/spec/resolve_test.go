package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOptionTable checks the option table against itself: every row has
// one known rule whose kind of value it can merge, a row that inherits
// names the Effective field it merges into, and knownKeys is the table's
// key set, which is Table II's.
func TestOptionTable(t *testing.T) {
	table2 := []string{
		"base", "bin", "board", "command", "distro", "files", "firmware", "guest-init",
		"host-init", "img", "jobs", "linux", "name", "no-disk", "outputs", "overlay",
		"post-run-hook", "qemu-args", "rootfs-size", "run", "spike", "spike-args", "testing",
	}
	if got := sortedKeys(knownKeys); !reflect.DeepEqual(got, table2) {
		t.Errorf("knownKeys = %v, want Table II's %v", got, table2)
	}
	var check func(prefix string, rows []option, inBlock rule)
	check = func(prefix string, rows []option, inBlock rule) {
		seen := map[string]bool{}
		for _, o := range rows {
			name := prefix + o.key
			if seen[o.key] {
				t.Errorf("%s: declared twice", name)
			}
			seen[o.key] = true
			if prefix == "" && !knownKeys[o.key] {
				t.Errorf("%s: not in knownKeys", name)
			}
			if int(o.rule) >= len(ruleNames) || ruleNames[o.rule] == "" {
				t.Errorf("%s: unknown rule %d", name, o.rule)
				continue
			}
			if (o.into != nil) != (o.rule != own) {
				t.Errorf("%s: rule %s, merges into an Effective field: %v", name, o.rule, o.into != nil)
			}
			if inBlock == nearest && o.rule != own {
				t.Errorf("%s: a field of a block taken whole has rule %s", name, o.rule)
			}
			w := &Workload{Linux: &LinuxOpts{}, Firmware: &FirmwareOpts{}, Testing: &TestingOpts{}}
			field := o.at(w)
			if o.fields != nil {
				check(name+".", o.fields, o.rule)
				continue
			}
			var ok bool
			switch o.rule {
			case own, nearest:
				ok = o.rule == own || reflect.TypeOf(field) == reflect.TypeOf(new(string))
			case concat, union:
				_, ok = field.(*[]string)
			case mapOverride:
				_, ok = field.(*map[string]string)
			}
			if !ok {
				t.Errorf("%s: rule %s cannot merge a %T", name, o.rule, field)
			}
		}
	}
	check("", options, own)
}

// genChain turns fuzz bytes into a chain of up to 4 workload documents,
// each the base of the next; the first is based on br-base. Values come
// from small pools so that levels agree and disagree often.
func genChain(data []byte) []map[string]any {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	pick := func(pool ...string) string { return pool[next(len(pool))] }
	list := func(pool ...string) []any {
		var out []any
		for i := next(3); i > 0; i-- {
			out = append(out, pick(pool...))
		}
		return out
	}
	opts := []func(m map[string]any){
		func(m map[string]any) { m["board"] = pick("b1", "b2") },
		func(m map[string]any) { m["distro"] = pick("br", "bare", "fedora") },
		func(m map[string]any) { m["rootfs-size"] = pick("1GiB", "64MiB") },
		func(m map[string]any) { m["spike"] = pick("pfa-spike", "gemmini-spike") },
		func(m map[string]any) { m["post-run-hook"] = pick("hook.sh", "sub/h.sh arg") },
		func(m map[string]any) { m["outputs"] = list("/output/a", "/output/b", "/output") },
		func(m map[string]any) { m["spike-args"] = list("--x", "--pfa-pages=4") },
		func(m map[string]any) { m["qemu-args"] = list("-m", "1G", "-smp") },
		func(m map[string]any) { m["command"] = pick("echo a", "echo b") },
		func(m map[string]any) { m["overlay"] = pick("ov", "ov2/") },
		func(m map[string]any) { m["files"] = []any{[]any{pick("f1", "f2"), "/g"}} },
		func(m map[string]any) { m["no-disk"] = next(2) == 0 },
		func(m map[string]any) {
			l := map[string]any{}
			if next(2) == 0 {
				l["source"] = pick("src1", "/abs/src")
			}
			if next(2) == 0 {
				l["config"] = pick("a.kfrag", "b.kfrag")
			} else {
				l["config"] = list("c.kfrag", "d.kfrag")
			}
			if next(2) == 0 {
				l["modules"] = map[string]any{pick("m1", "m2"): pick("mods/x", "mods/y")}
			}
			m["linux"] = l
		},
		func(m map[string]any) {
			f := map[string]any{"build-args": list("--a", "--b")}
			if next(2) == 0 {
				f["kind"] = pick("bbl", "opensbi")
			}
			m["firmware"] = f
		},
		func(m map[string]any) {
			tm := map[string]any{"refDir": pick("refs", "refs2")}
			if next(2) == 0 {
				tm["timeout"] = float64(next(100))
			}
			if next(2) == 0 {
				tm["strip"] = false
			}
			m["testing"] = tm
		},
	}
	var docs []map[string]any
	for i := next(4) + 1; i > 0; i-- {
		m := map[string]any{}
		for n := next(5); n > 0; n-- {
			opts[next(len(opts))](m)
		}
		if next(3) == 0 {
			job := map[string]any{"name": "j"}
			for n := next(3); n > 0; n-- {
				opts[next(len(opts))](job)
			}
			m["jobs"] = []any{job}
		}
		docs = append(docs, m)
	}
	return docs
}

// writeChain writes docs as l0 <- l1 <- ... in dir, in JSON or YAML, and
// returns the leaf's name. An empty level may stand before any document.
func writeChain(t testing.TB, dir string, docs []map[string]any, yaml bool, emptyAt int) string {
	t.Helper()
	for _, ext := range []string{"*.json", "*.yaml"} {
		old, _ := filepath.Glob(filepath.Join(dir, ext))
		for _, p := range old {
			os.Remove(p)
		}
	}
	base := "br-base"
	write := func(name string, m map[string]any) {
		doc := map[string]any{"name": name, "base": base}
		for k, v := range m {
			doc[k] = v
		}
		var data []byte
		if yaml {
			var b strings.Builder
			emitYAML(&b, doc, "")
			data = []byte(b.String())
		} else {
			var err error
			if data, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
		}
		ext := ".json"
		if yaml {
			ext = ".yaml"
		}
		if err := os.WriteFile(filepath.Join(dir, name+ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
		base = name
	}
	for i, m := range docs {
		if i == emptyAt {
			write("empty", nil)
		}
		write(fmt.Sprintf("l%d", i), m)
	}
	return base
}

// emitYAML writes a mapping in block style; lists of strings become block
// sequences and a files pair a flow sequence.
func emitYAML(b *strings.Builder, m map[string]any, indent string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := m[k].(type) {
		case map[string]any:
			fmt.Fprintf(b, "%s%s:\n", indent, k)
			emitYAML(b, v, indent+"  ")
		case []any:
			fmt.Fprintf(b, "%s%s:\n", indent, k)
			for _, item := range v {
				switch iv := item.(type) {
				case map[string]any:
					var sub strings.Builder
					emitYAML(&sub, iv, indent+"    ")
					fmt.Fprintf(b, "%s  - %s", indent, strings.TrimPrefix(sub.String(), indent+"    "))
				case []any:
					var parts []string
					for _, s := range iv {
						parts = append(parts, strconv.Quote(s.(string)))
					}
					fmt.Fprintf(b, "%s  - [%s]\n", indent, strings.Join(parts, ", "))
				default:
					fmt.Fprintf(b, "%s  - %s\n", indent, strconv.Quote(iv.(string)))
				}
			}
		case string:
			fmt.Fprintf(b, "%s%s: %s\n", indent, k, strconv.Quote(v))
		default:
			fmt.Fprintf(b, "%s%s: %v\n", indent, k, v)
		}
	}
}

// merged is what Resolve made of w and its jobs, without the levels.
func merged(w *Workload) []Effective {
	var out []Effective
	for _, x := range append([]*Workload{w}, w.Jobs...) {
		e := *x.Effective
		e.Levels = nil
		out = append(out, e)
	}
	return out
}

// checkChain loads docs in both spellings and with an empty level at each
// position, and requires every one to resolve as the plain JSON chain.
func checkChain(t testing.TB, dir string, docs []map[string]any) {
	t.Helper()
	load := func(yaml bool, emptyAt int) []Effective {
		leaf := writeChain(t, dir, docs, yaml, emptyAt)
		w, err := newTestLoaderQuick(dir).Load(leaf)
		if err != nil {
			t.Fatalf("loading %v (yaml=%v, empty level at %d): %v", docs, yaml, emptyAt, err)
		}
		return merged(w)
	}
	want := load(false, -1)
	if got := load(true, -1); !reflect.DeepEqual(got, want) {
		t.Errorf("YAML chain resolves to\n%+v\nJSON chain to\n%+v\n(docs %v)", got, want, docs)
	}
	for at := range docs {
		if got := load(false, at); !reflect.DeepEqual(got, want) {
			t.Errorf("an empty level before level %d changes the merge to\n%+v\nfrom\n%+v\n(docs %v)", at, got, want, docs)
		}
	}
}

var chainSeeds = [][]byte{
	{3, 4, 12, 1, 0, 1, 1, 13, 0, 0, 14, 1, 2, 0, 5, 2, 0, 1},
	{2, 3, 5, 2, 0, 1, 6, 1, 2, 12, 0, 1, 1, 0, 0, 1, 14, 1, 2, 3, 4},
	{1, 4, 14, 0, 0, 7, 0, 4, 13, 1, 0, 0, 12, 1, 1, 0, 1},
	{0, 2, 4, 1, 8, 0, 0, 2, 11, 1},
}

// Inserting an empty level anywhere in a chain changes no merged value.
func TestEmptyLevelChangesNoEffectiveValue(t *testing.T) {
	dir := t.TempDir()
	for _, seed := range chainSeeds {
		checkChain(t, dir, genChain(seed))
	}
	// One chain by hand, with each rule's result spelled out.
	docs := []map[string]any{
		{"outputs": []any{"/o/a"}, "linux": map[string]any{"config": "p.kfrag", "modules": map[string]any{"m": "p/m"}}},
		{"outputs": []any{"/o/b", "/o/a"}, "rootfs-size": "1GiB", "linux": map[string]any{"modules": map[string]any{"m": "c/m"}}},
	}
	checkChain(t, dir, docs)
	w, err := newTestLoaderQuick(dir).Load(writeChain(t, dir, docs, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	e := w.Effective
	if !reflect.DeepEqual(e.Outputs, []string{"/o/a", "/o/b"}) || e.RootfsSize != "1GiB" ||
		!reflect.DeepEqual(e.ConfigFragments, []string{filepath.Join(dir, "p.kfrag")}) ||
		e.Modules["m"] != filepath.Join(dir, "c/m") || e.Distro != "br" || len(e.Levels) != 4 {
		t.Errorf("merged %+v", *e)
	}
}

// The JSON and YAML spellings of a chain resolve identically.
func TestJSONAndYAMLChainsResolveIdentically(t *testing.T) {
	dir := t.TempDir()
	for _, seed := range chainSeeds {
		checkChain(t, dir, genChain(seed))
	}
}

// FuzzResolve loads random chains of up to 4 documents. Loading never
// panics, and each chain resolves the same in YAML and with an empty level
// inserted anywhere.
func FuzzResolve(f *testing.F) {
	for _, seed := range chainSeeds {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkChain(t, dir, genChain(data))
	})
}
