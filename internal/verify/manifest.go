// Farm manifests as bytes: a summary encoded whole, and parsed back. A
// fleet shard's manifest is one of its outputs; the coordinator parses
// each landed one and folds the shards into one global view — entries
// concatenated in shard order, coverage merged, signatures re-deduped
// globally.
package verify

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Manifest encodes the summary as farm-manifest JSONL, byte for byte what
// RunFarm journals for it: each record, then the summary line.
func (s *FarmSummary) Manifest() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range s.Records {
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	if err := enc.Encode(s.Record()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseManifest decodes farm-manifest JSONL: entry records in order plus
// the trailing summary. A manifest truncated before its summary line
// (worker died mid-run) parses to a nil summary, not an error.
func ParseManifest(data []byte) ([]FarmRecord, *FarmSummaryRecord, error) {
	var recs []FarmRecord
	var sum *FarmSummaryRecord
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, nil, fmt.Errorf("verify: manifest line %d: %w", i+1, err)
		}
		switch probe.Event {
		case "entry":
			var rec FarmRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, nil, fmt.Errorf("verify: manifest line %d: %w", i+1, err)
			}
			recs = append(recs, rec)
		case "summary":
			sum = &FarmSummaryRecord{}
			if err := json.Unmarshal(line, sum); err != nil {
				return nil, nil, fmt.Errorf("verify: manifest line %d: %w", i+1, err)
			}
		default:
			return nil, nil, fmt.Errorf("verify: manifest line %d: unknown event %q", i+1, probe.Event)
		}
	}
	return recs, sum, nil
}

// MergeShards folds per-shard farm results into one summary: entries
// re-numbered in shard order, coverage merged, and signatures re-deduped
// globally — a signature two shards both found counts all its hits but
// keeps only the first shard's repro and NewSig mark.
func MergeShards(shards [][]FarmRecord, sums []*FarmSummaryRecord) *FarmSummary {
	out := &FarmSummary{
		Signatures: map[string]int{},
		Repros:     map[string]string{},
	}
	for si, recs := range shards {
		for _, rec := range recs {
			rec.Entry = out.Entries
			out.Entries++
			if rec.Status == "diverged" {
				out.Divergences++
			}
			if rec.Sig != "" {
				first := out.Signatures[rec.Sig] == 0
				out.Signatures[rec.Sig]++
				rec.NewSig = first
				if first && rec.Repro != "" {
					out.Repros[rec.Sig] = rec.Repro
				} else if !first {
					rec.Repro, rec.ReproRecipe = "", ""
				}
			}
			out.Records = append(out.Records, rec)
		}
		if si < len(sums) && sums[si] != nil {
			out.Coverage.Merge(sums[si].Coverage)
		}
	}
	return out
}
