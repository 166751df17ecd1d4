package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"ptguard/internal/harness"
	"ptguard/internal/stats"
)

// pinned.json holds, per campaign kind, a digest of each job's paper
// numbers at defaultSeed (regenerate with `go test -run TestPinned
// -update`). Any change to a digest changes a figure the paper reports.
//
//go:embed pinned.json
var pinnedJSON []byte

func pinned() (map[string]map[string]string, error) {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return p, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// verify checks the jobs of one pass at one campaign seed and returns the
// keys that failed, with the reason: a job that failed, breaks an
// invariant, or (at the default seed) no longer matches its pinned
// digest; for proc runs, a spot-checked job whose proc result is not
// byte-identical to the in-process one.
func verify(k *kind, seed uint64, outs []harness.Outcome[json.RawMessage], spot map[string]json.RawMessage) map[string]string {
	bad := map[string]string{}
	fail := func(key, format string, args ...any) {
		if bad[key] == "" {
			bad[key] = fmt.Sprintf(format, args...)
		}
	}
	var pins map[string]string
	if seed == defaultSeed {
		all, err := pinned()
		if err != nil {
			for _, o := range outs {
				fail(o.Key, "%v", err)
			}
			return report(bad)
		}
		pins = all[k.name]
	}
	results := map[string]json.RawMessage{}
	for _, o := range outs {
		if o.Err != nil {
			fail(o.Key, "job failed: %v", o.Err)
			continue
		}
		results[o.Key] = o.Result
		if err := k.check(o.Result); err != nil {
			fail(o.Key, "invariant: %v", err)
		}
		if pins != nil {
			s, err := k.pin(o.Result)
			switch {
			case err != nil:
				fail(o.Key, "pin: %v", err)
			case pins[o.Key] != digest(s):
				fail(o.Key, "paper numbers changed at the default seed: %s", s)
			}
		}
	}
	for key, want := range spot {
		if got, ok := results[key]; ok && !bytes.Equal(got, want) {
			fail(key, "proc result not byte-identical to in-process")
		}
	}
	return report(bad)
}

func report(bad map[string]string) map[string]string {
	keys := make([]string, 0, len(bad))
	for k := range bad {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", k, bad[k])
	}
	return bad
}

// spotCheck re-runs a few jobs the proc workers completed, in-process,
// chosen from the seed, so byte-identity across backends is checked at
// every seed (the pinned digests cover every job at the default seed).
func spotCheck(jobs []harness.Job[json.RawMessage], outs []harness.Outcome[json.RawMessage], seed uint64) (map[string]json.RawMessage, error) {
	ran := map[string]bool{}
	var keys []string
	for _, o := range outs {
		if !ran[o.Key] {
			ran[o.Key] = true
			keys = append(keys, o.Key)
		}
	}
	byKey := map[string]harness.Job[json.RawMessage]{}
	for _, j := range jobs {
		byKey[j.Key] = j
	}
	rng := stats.NewRNG(seed ^ 0x5907)
	out := map[string]json.RawMessage{}
	for i := 0; i < spotChecks && len(out) < len(keys); i++ {
		key := keys[rng.Intn(len(keys))]
		if _, done := out[key]; done {
			continue
		}
		raw, err := byKey[key].Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("spot check %s: %w", key, err)
		}
		out[key] = raw
	}
	return out, nil
}
