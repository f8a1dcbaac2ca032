package dsio

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/p2p"
	"github.com/ethpbs/pbslab/internal/types"
)

// gob allocates type descriptor IDs from a process-global counter in
// first-use order, so the same corpus would encode to value-equal but
// byte-different streams depending on what the process gob-encoded or
// -decoded earlier — a worker that restored a checkpoint before dumping
// its dataset, for example. Walking the full DTO closure here pins those
// IDs at init, before any runtime gob traffic, making segment bytes
// canonical: equal corpora hash equal in every binary linking this
// package, which manifest digests and byte-level corpus comparison rely
// on.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{&segCommon{}, &segDay{}} {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("dsio: pin gob type IDs: %v", err))
		}
	}
}

// txDTO is a Transaction stripped of its unexported hash cache.
type txDTO struct {
	Nonce          uint64
	From, To       types.Address
	Value          types.Wei
	Gas            uint64
	MaxFee, MaxTip types.Wei
	Data           []byte
}

func toTxDTO(tx *types.Transaction) txDTO {
	return txDTO{
		Nonce: tx.Nonce, From: tx.From, To: tx.To, Value: tx.Value,
		Gas: tx.Gas, MaxFee: tx.MaxFee, MaxTip: tx.MaxTip, Data: tx.Data,
	}
}

func (d txDTO) tx() *types.Transaction {
	return types.NewTransaction(d.Nonce, d.From, d.To, d.Value, d.Gas, d.MaxFee, d.MaxTip, d.Data)
}

// blockDTO mirrors dataset.Block with DTO transactions. The stored hash is
// kept verbatim: dataset blocks carry the hash the collector observed, and
// relay-trace consistency checks compare against exactly that value.
type blockDTO struct {
	Number       uint64
	Hash         types.Hash
	Slot         uint64
	Time         time.Time
	FeeRecipient types.Address
	GasUsed      uint64
	GasLimit     uint64
	BaseFee      types.Wei
	Txs          []txDTO
	Receipts     []*types.Receipt
	Traces       []types.Trace
	Burned       types.Wei
	Tips         types.Wei
}

func blockToDTO(b *dataset.Block) blockDTO {
	d := blockDTO{
		Number: b.Number, Hash: b.Hash, Slot: b.Slot, Time: b.Time,
		FeeRecipient: b.FeeRecipient, GasUsed: b.GasUsed, GasLimit: b.GasLimit,
		BaseFee: b.BaseFee, Txs: make([]txDTO, len(b.Txs)),
		Receipts: b.Receipts, Traces: b.Traces, Burned: b.Burned, Tips: b.Tips,
	}
	for j, tx := range b.Txs {
		d.Txs[j] = toTxDTO(tx)
	}
	return d
}

func (d blockDTO) block() *dataset.Block {
	b := &dataset.Block{
		Number: d.Number, Hash: d.Hash, Slot: d.Slot, Time: d.Time,
		FeeRecipient: d.FeeRecipient, GasUsed: d.GasUsed, GasLimit: d.GasLimit,
		BaseFee: d.BaseFee, Txs: make([]*types.Transaction, len(d.Txs)),
		Receipts: d.Receipts, Traces: d.Traces, Burned: d.Burned, Tips: d.Tips,
	}
	for j, t := range d.Txs {
		b.Txs[j] = t.tx()
	}
	return b
}

// sourceDTO is one MEV provider's label set, sorted by source name so the
// MEVBySource map encodes deterministically.
type sourceDTO struct {
	Source string
	Labels []mev.Label
}

// labelDTO is one builder-address attribution, sorted by address.
type labelDTO struct {
	Addr types.Address
	Name string
}

// commonDTO is the corpus minus its blocks — the "common section" every
// reader needs regardless of which days it opens — with every map
// flattened into a sorted slice so the encoding is deterministic.
type commonDTO struct {
	Start, End time.Time

	MEVLabels   []mev.Label
	MEVBySource []sourceDTO
	Arrivals    []p2p.Observation
	Relays      []dataset.RelayData
	Sanctions   []ofac.Designation

	BuilderLabels []labelDTO
}

func toCommonDTO(ds *dataset.Dataset, labels map[types.Address]string) commonDTO {
	c := commonDTO{
		Start:     ds.Start,
		End:       ds.End,
		MEVLabels: ds.MEVLabels,
		Relays:    ds.Relays,
	}
	for source, ls := range ds.MEVBySource {
		c.MEVBySource = append(c.MEVBySource, sourceDTO{Source: source, Labels: ls})
	}
	sort.Slice(c.MEVBySource, func(i, j int) bool { return c.MEVBySource[i].Source < c.MEVBySource[j].Source })
	for _, obs := range ds.Arrivals {
		c.Arrivals = append(c.Arrivals, obs)
	}
	sort.Slice(c.Arrivals, func(i, j int) bool {
		return bytes.Compare(c.Arrivals[i].TxHash[:], c.Arrivals[j].TxHash[:]) < 0
	})
	if ds.Sanctions != nil {
		c.Sanctions = ds.Sanctions.All()
	}
	for addr, name := range labels {
		c.BuilderLabels = append(c.BuilderLabels, labelDTO{Addr: addr, Name: name})
	}
	sort.Slice(c.BuilderLabels, func(i, j int) bool {
		return bytes.Compare(c.BuilderLabels[i].Addr[:], c.BuilderLabels[j].Addr[:]) < 0
	})
	return c
}

// dataset rebuilds the blocks-free corpus shell and the builder labels.
func (c commonDTO) dataset() (*dataset.Dataset, map[types.Address]string) {
	ds := &dataset.Dataset{
		Start:       c.Start,
		End:         c.End,
		MEVLabels:   c.MEVLabels,
		MEVBySource: make(map[string][]mev.Label, len(c.MEVBySource)),
		Arrivals:    make(map[types.Hash]p2p.Observation, len(c.Arrivals)),
		Relays:      c.Relays,
		Sanctions:   ofac.NewRegistry(c.Sanctions),
	}
	for _, s := range c.MEVBySource {
		ds.MEVBySource[s.Source] = s.Labels
	}
	for _, obs := range c.Arrivals {
		ds.Arrivals[obs.TxHash] = obs
	}
	labels := make(map[types.Address]string, len(c.BuilderLabels))
	for _, l := range c.BuilderLabels {
		labels[l.Addr] = l.Name
	}
	return ds, labels
}
