package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// The pinned goldens of the full scale, seeds 1 and 2 (2 is the held-out
// seed for later claims): golden/<seed>/<workload>/facts.json, plus for
// the workloads `marshal test` and VerifyInstalled check natively an
// ordinary testing.refDir tree under refs/, and golden/<seed>/probes.json
// for the exact counts of the tier x shape matrix.
//
//go:embed all:golden
var embeddedGoldens embed.FS

// goldenSet is one seed's golden tree.
type goldenSet struct {
	fsys fs.FS
}

// openGoldens returns the seed's goldens from dir ("" = the embedded
// tree), or nil when the seed is not pinned there.
func openGoldens(dir string, seed int64) *goldenSet {
	var root fs.FS = embeddedGoldens
	sub := fmt.Sprintf("golden/%d", seed)
	if dir != "" {
		root, sub = os.DirFS(dir), fmt.Sprint(seed)
	}
	fsys, err := fs.Sub(root, sub)
	if err != nil {
		return nil
	}
	if _, err := fs.Stat(fsys, "."); err != nil {
		return nil
	}
	return &goldenSet{fsys: fsys}
}

// workload returns the workload's golden tree, nil if it has none.
func (g *goldenSet) workload(name string) fs.FS {
	if g == nil {
		return nil
	}
	sub, err := fs.Sub(g.fsys, name)
	if err != nil {
		return nil
	}
	if _, err := fs.Stat(sub, "facts.json"); err != nil {
		return nil
	}
	return sub
}

// probes returns the pinned probe facts, nil if there are none.
func (g *goldenSet) probes() facts {
	if g == nil {
		return nil
	}
	data, err := fs.ReadFile(g.fsys, "probes.json")
	if err != nil {
		return nil
	}
	var f facts
	if json.Unmarshal(data, &f) != nil {
		return nil
	}
	return f
}

func readFacts(golden fs.FS) (facts, error) {
	data, err := fs.ReadFile(golden, "facts.json")
	if err != nil {
		return nil, err
	}
	var f facts
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("golden facts.json: %w", err)
	}
	return f, nil
}

func writeFactsFile(path string, f facts) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'), 0o644)
}

// writeGolden pins a run: its facts and, from the reference files the
// scenario collected, the refs tree the program's own test commands read.
func writeGolden(dir string, f facts, refs map[string][]byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := writeFactsFile(filepath.Join(dir, "facts.json"), f); err != nil {
		return err
	}
	for rel, data := range refs {
		if err := writeFile(filepath.Join(dir, "refs", filepath.FromSlash(rel)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
