// Dataset and artifact corruption: the injector half of the durability
// story. CorruptDataset plants one violation of every invariant class that
// core.Validate checks, and CorruptDir damages a report output directory in
// every way report.VerifyDir can detect. Both draw from a seeded rng, so a
// test can inject, assert detection, and reproduce any failure from the
// seed alone.
package faults

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/rng"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Corruption records one injected fault: where it was planted and what a
// validator should say about it.
type Corruption struct {
	// Kind matches the violation/problem kind the detector should report
	// (core.Vio* for datasets, report.Problem* for directories).
	Kind string
	// Target is the damaged block number (datasets) or file name
	// (directories), as a string.
	Target string
	Detail string
}

func (c Corruption) String() string {
	return fmt.Sprintf("%s at %s: %s", c.Kind, c.Target, c.Detail)
}

// CorruptDataset plants one deterministic violation per invariant class —
// chain order, window alignment, fee conservation, MEV-label integrity,
// and relay trace consistency — into ds, in place. It picks distinct
// victim blocks from the seeded stream so no single block absorbs every
// fault, and returns what it did so a test can assert each corruption is
// detected. The dataset must span at least six blocks, and some relay must
// have delivered one of them other than the first.
func CorruptDataset(seed uint64, ds *dataset.Dataset) []Corruption {
	r := rng.New(seed).Fork("corrupt/dataset")
	n := len(ds.Blocks)
	if n < 6 {
		panic(fmt.Sprintf("faults: CorruptDataset needs >= 6 blocks, have %d", n))
	}
	// Distinct victims, never block 0 of the slice: order faults compare
	// against a predecessor, so index >= 1 keeps every fault observable.
	// The relay victim is drawn first, from the relay-delivered blocks: a
	// phantom delivery at its number is a violation, while one at a number
	// whose canonical block came through no relay is an unlanded payload,
	// not a fault.
	delivered := map[types.Hash]bool{}
	for _, rel := range ds.Relays {
		for _, tr := range rel.Delivered {
			delivered[tr.BlockHash] = true
		}
	}
	var viaRelay []int
	for i := 1; i < n; i++ {
		if delivered[ds.Blocks[i].Hash] {
			viaRelay = append(viaRelay, i)
		}
	}
	if len(viaRelay) == 0 {
		panic("faults: CorruptDataset needs a relay-delivered block after the first")
	}
	relayVictim := viaRelay[r.Intn(len(viaRelay))]
	victims := make([]int, 0, 5)
	taken := map[int]bool{relayVictim: true}
	for len(victims) < 4 {
		i := 1 + r.Intn(n-1)
		if !taken[i] {
			taken[i] = true
			victims = append(victims, i)
		}
	}
	victims = append(victims, relayVictim)
	var out []Corruption
	note := func(kind string, block uint64, format string, args ...any) {
		out = append(out, Corruption{
			Kind: kind, Target: fmt.Sprintf("%d", block),
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// Order: tear the number sequence by jumping a block forward.
	b := ds.Blocks[victims[0]]
	b.Number += 1 + uint64(r.Intn(1000))
	note("order", b.Number, "block number advanced out of sequence")

	// Window: push a timestamp past the dataset's declared end.
	b = ds.Blocks[victims[1]]
	b.Time = ds.End.Add(time.Duration(1+r.Intn(48)) * time.Hour)
	note("window", b.Number, "timestamp moved past window end")

	// Conservation: skim from the recorded tips so receipts no longer
	// account for the stored total.
	b = ds.Blocks[victims[2]]
	skim := u256.New(1 + uint64(r.Intn(1_000_000)))
	b.Tips = b.Tips.Add(skim)
	note("conservation", b.Number, "stored tips inflated by %s wei", skim)

	// Label: a fabricated MEV label pointing at a transaction no block
	// carries.
	b = ds.Blocks[victims[3]]
	var ghost types.Hash
	for i := range ghost {
		ghost[i] = byte(r.Intn(256))
	}
	ds.MEVLabels = append(ds.MEVLabels, mev.Label{
		Block: b.Number, Kind: mev.KindSandwich, Txs: []types.Hash{ghost},
	})
	note("label", b.Number, "sandwich label references a ghost transaction")

	// Relay: a second delivered hash, one that never landed on chain, for a
	// relay-delivered block.
	b = ds.Blocks[victims[4]]
	rel := &ds.Relays[r.Intn(len(ds.Relays))]
	var phantom types.Hash
	for i := range phantom {
		phantom[i] = byte(r.Intn(256))
	}
	rel.Delivered = append(rel.Delivered, pbs.BidTrace{
		Slot: b.Slot, BlockHash: phantom, BlockNumber: b.Number,
	})
	note("relay", b.Number, "relay %s credited with a phantom delivery", rel.Name)

	return out
}

// CorruptDir damages a verified report directory in each way VerifyDir
// must catch: truncate one listed file, flip a byte in another, delete a
// third, drop an unlisted stale file, and leave atomic-write temp debris.
// File picks are drawn from the seeded stream over the sorted manifest
// order. The directory must hold at least three regular files besides the
// manifest.
func CorruptDir(seed uint64, dir string) ([]Corruption, error) {
	r := rng.New(seed).Fork("corrupt/dir")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() || ent.Name() == "manifest.json" {
			continue
		}
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	if len(names) < 3 {
		return nil, fmt.Errorf("faults: CorruptDir needs >= 3 artifacts, have %d", len(names))
	}
	picks := r.Perm(len(names))[:3]
	var out []Corruption

	// Truncate: keep a strict prefix so both size and checksum drift.
	name := names[picks[0]]
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	keep := len(data) / 2
	if err := os.WriteFile(path, data[:keep], 0o644); err != nil {
		return nil, err
	}
	out = append(out, Corruption{Kind: "corrupt", Target: name,
		Detail: fmt.Sprintf("truncated %d -> %d bytes", len(data), keep)})

	// Bit flip: same size, different checksum.
	name = names[picks[1]]
	path = filepath.Join(dir, name)
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	i := r.Intn(len(data))
	data[i] ^= 1 << uint(r.Intn(8))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	out = append(out, Corruption{Kind: "corrupt", Target: name,
		Detail: fmt.Sprintf("flipped a bit at offset %d", i)})

	// Delete: listed in the manifest, gone from disk.
	name = names[picks[2]]
	if err := os.Remove(filepath.Join(dir, name)); err != nil {
		return nil, err
	}
	out = append(out, Corruption{Kind: "missing", Target: name, Detail: "deleted from disk"})

	// Stale: a file the manifest never covered.
	stale := "leftover-from-older-run.csv"
	if err := os.WriteFile(filepath.Join(dir, stale), []byte("day,value\n0,0\n"), 0o644); err != nil {
		return nil, err
	}
	out = append(out, Corruption{Kind: "stale", Target: stale, Detail: "unlisted file planted"})

	// Temp debris: what an interrupted atomic write leaves behind.
	debris := ".tmp-interrupted-write"
	if err := os.WriteFile(filepath.Join(dir, debris), []byte("partial"), 0o644); err != nil {
		return nil, err
	}
	out = append(out, Corruption{Kind: "stale", Target: debris, Detail: "atomic-write temp debris planted"})

	return out, nil
}
