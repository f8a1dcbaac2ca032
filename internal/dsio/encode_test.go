package dsio

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/p2p"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/types"
)

// The reference encoder: the segments as encoding/gob writes them, through
// the DTOs the decoder reads. The hand encoder must match it byte for byte.

// encodeGob encodes v with a fresh encoder, so every segment carries its
// own type descriptors and decodes on its own.
func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func toTxDTO(tx *types.Transaction) txDTO {
	return txDTO{
		Nonce: tx.Nonce, From: tx.From, To: tx.To, Value: tx.Value,
		Gas: tx.Gas, MaxFee: tx.MaxFee, MaxTip: tx.MaxTip, Data: tx.Data,
	}
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

func gobDay(day int, blocks []*dataset.Block) ([]byte, error) {
	env := segDay{Version: segmentVersion, Day: day, Blocks: make([]blockDTO, len(blocks))}
	for i, b := range blocks {
		env.Blocks[i] = blockToDTO(b)
	}
	return encodeGob(&env)
}

// gobChunked is EncodeChunked with every segment written by gob.
func gobChunked(t *testing.T, ds *dataset.Dataset, labels map[types.Address]string) []File {
	t.Helper()
	days := ds.Days()
	byDay := make([][]*dataset.Block, days)
	for _, b := range ds.Blocks {
		d := ds.BlockDay(b)
		byDay[d] = append(byDay[d], b)
	}
	common, err := encodeGob(&segCommon{Version: segmentVersion, Common: toCommonDTO(ds, labels)})
	if err != nil {
		t.Fatal(err)
	}
	files := []File{{Name: CommonName, Data: common}}
	idx := SegmentIndex{
		Version: segmentVersion,
		Start:   ds.Start,
		End:     ds.End,
		Common:  IndexFile{Name: CommonName, Size: int64(len(common)), SHA256: digest(common)},
	}
	for day, blocks := range byDay {
		data, err := gobDay(day, blocks)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, File{Name: SegmentName(day), Data: data})
		idx.Segments = append(idx.Segments, Segment{
			Name: SegmentName(day), Day: day, Blocks: len(blocks),
			Size: int64(len(data)), SHA256: digest(data),
		})
		idx.TotalBlcks += len(blocks)
		for _, b := range blocks {
			idx.TotalTxs += len(b.Txs)
		}
	}
	data, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, File{Name: IndexName, Data: append(data, '\n')})
}

// edgeCorpus hand-builds a two-day corpus that reaches every wire rule of
// the segment encoder: block number 0 at time.Time{} (the window starts at
// the zero time, so the common section omits Start); nil and empty
// transaction, receipt, trace, topic and data slices; zero, mixed and
// all-ones Wei; hashes, addresses and pubkeys whose bytes are all >= 0x80;
// data and strings of 127 and 128 bytes (one- and two-byte counts);
// extreme and negative ints; non-UTC times, one with a seconds offset;
// zero times inside Observation.Seen.
func edgeCorpus() (*dataset.Dataset, map[types.Address]string) {
	high := func(seed byte) (h types.Hash) {
		for i := range h {
			h[i] = 0x80 | (seed + byte(i))
		}
		return h
	}
	var ones types.Hash
	for i := range ones {
		ones[i] = 0xff
	}
	var addr types.Address
	for i := range addr {
		addr[i] = 0x80 + byte(i)
	}
	var pk types.PubKey
	for i := range pk {
		pk[i] = 0xff - byte(i)
	}
	allOnes := types.Wei{math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64}
	mixed := types.Wei{0, 1 << 63, 0, 0x7f}
	data127 := bytes.Repeat([]byte{0xab}, 127)
	data128 := bytes.Repeat([]byte{0x01}, 128)
	str127, str128 := strings.Repeat("x", 127), strings.Repeat("y", 128)
	odd := time.FixedZone("odd", 3600+7)
	east := time.FixedZone("east", 5*3600)
	var start time.Time

	blocks := []*dataset.Block{
		{Number: 0, Time: start},
		{
			Number: 1, Hash: high(1), Slot: math.MaxUint64, Time: start.Add(time.Hour).In(odd),
			FeeRecipient: addr, GasUsed: 128, GasLimit: 127, BaseFee: allOnes,
			Txs: []*types.Transaction{
				types.NewTransaction(0, addr, types.Address{}, types.Wei{}, 0, allOnes, mixed, nil),
				types.NewTransaction(math.MaxUint64, types.Address{}, addr, allOnes, 21000, types.Wei{}, types.Wei{}, data128),
				types.NewTransaction(127, addr, addr, mixed, 128, mixed, allOnes, []byte{}),
				types.NewTransaction(128, addr, addr, mixed, 1<<56, mixed, allOnes, data127),
			},
			Receipts: []*types.Receipt{
				{TxHash: high(2), Status: 1, GasUsed: 21000, EffectiveGasPrice: mixed, Logs: []types.Log{
					{Address: addr, Topics: []types.Hash{ones, {}}, Data: data127, TxHash: high(3), Index: 128},
					{Topics: []types.Hash{}, Data: []byte{}},
					{Topics: nil, Data: data128, Index: math.MaxUint},
				}},
				{Logs: []types.Log{}},
				{Status: 0xff, EffectiveGasPrice: allOnes},
			},
			Traces: []types.Trace{{TxHash: ones, From: addr, Value: allOnes}, {}},
			Burned: mixed, Tips: allOnes,
		},
		{
			Number: 2, Time: start.Add(25 * time.Hour).In(east),
			Txs: []*types.Transaction{}, Receipts: []*types.Receipt{}, Traces: []types.Trace{},
		},
	}
	ds := &dataset.Dataset{
		Start:  start,
		End:    start.Add(47 * time.Hour),
		Blocks: blocks,
		MEVLabels: []mev.Label{
			{},
			{Block: 128, Kind: 2, Txs: []types.Hash{ones, high(4)}, Victim: high(5), Actor: addr},
			{Block: math.MaxUint64, Txs: []types.Hash{}},
		},
		MEVBySource: map[string][]mev.Label{
			"":     nil,
			str127: {{Block: 1, Kind: 1}},
			str128: {},
		},
		Arrivals: map[types.Hash]p2p.Observation{
			ones:     {TxHash: ones, Seen: []time.Time{{}, start.Add(time.Second).In(odd), {}, start.Add(time.Minute).UTC()}},
			{}:       {Seen: []time.Time{}},
			high(6):  {TxHash: high(6)},
			high(64): {TxHash: high(64), Seen: []time.Time{{}}},
		},
		Relays: []dataset.RelayData{
			{},
			{
				Name: str127, Endpoint: str128, Fork: "f", BuilderAccess: "permissioned",
				OFACCompliant: true,
				Delivered: []pbs.BidTrace{{}, {
					Slot: 1, ParentHash: ones, BlockHash: high(7), BuilderPubkey: pk, ProposerPubkey: pk,
					ProposerFeeRecipient: addr, GasLimit: 128, GasUsed: 127, Value: allOnes,
					NumTx: -1, BlockNumber: math.MaxUint64,
				}},
				Received:       []pbs.BidTrace{{NumTx: math.MinInt64}, {NumTx: math.MaxInt64, Value: mixed}},
				ValidatorCount: -128,
			},
			{Name: "mev-filter", MEVFilter: true, Delivered: []pbs.BidTrace{}, ValidatorCount: 64},
		},
		Sanctions: ofac.NewRegistry([]ofac.Designation{
			{Address: addr, Name: str128, Designated: time.Date(2022, 8, 8, 0, 0, 0, 0, time.UTC)},
			{},
			{Address: types.Address{1}, Name: str127, Designated: start.Add(90 * time.Second).In(odd)},
		}),
	}
	labels := map[types.Address]string{addr: str127, {}: "", {0x7f}: str128}
	return ds, labels
}

// TestEncodeChunkedMatchesGob holds the hand encoder to gob's bytes: every
// file EncodeChunked returns equals what a fresh gob.Encoder writes for
// the same envelope (and the index over those segments), for a simulated
// corpus, the same corpus with an empty day, and the hand-built edge
// corpus.
func TestEncodeChunkedMatchesGob(t *testing.T) {
	res := smallRun(t)
	edge, edgeLabels := edgeCorpus()
	for _, tc := range []struct {
		name   string
		ds     *dataset.Dataset
		labels map[types.Address]string
	}{
		{"smallRun", res.Dataset, res.World.BuilderLabels()},
		{"empty day", pruneDay(t, res.Dataset, 1), nil},
		{"edge", edge, edgeLabels},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := EncodeChunked(tc.ds, tc.labels)
			if err != nil {
				t.Fatal(err)
			}
			want := gobChunked(t, tc.ds, tc.labels)
			if len(got) != len(want) {
				t.Fatalf("%d files, gob writes %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Name != want[i].Name {
					t.Fatalf("file %d is %s, gob's is %s", i, got[i].Name, want[i].Name)
				}
				if !bytes.Equal(got[i].Data, want[i].Data) {
					t.Errorf("%s: %s", got[i].Name, firstDiff(got[i].Data, want[i].Data))
				}
				if got[i].Name != IndexName && len(got[i].Data) != cap(got[i].Data) {
					t.Errorf("%s: %d bytes in a %d-byte buffer, want it sized exactly", got[i].Name, len(got[i].Data), cap(got[i].Data))
				}
			}
		})
	}

	t.Run("nil receipt", func(t *testing.T) {
		ds, labels := edgeCorpus()
		ds.Blocks[2].Receipts = []*types.Receipt{nil}
		if _, err := gobDay(1, ds.Blocks[2:]); err == nil {
			t.Fatal("gob encoded a nil receipt; the reference changed")
		}
		_, err := EncodeChunked(ds, labels)
		if err == nil || !strings.Contains(err.Error(), "day 1") {
			t.Fatalf("nil receipt: err = %v, want an error naming day 1", err)
		}
		ds.Blocks[2].Receipts = nil
		ds.Blocks[2].Txs = []*types.Transaction{nil}
		if _, err := EncodeChunked(ds, labels); err == nil || !strings.Contains(err.Error(), "day 1") {
			t.Fatalf("nil transaction: err = %v, want an error naming day 1", err)
		}
	})
}

// firstDiff describes where two encodings part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("%d bytes, gob writes %d; first difference at byte %d", len(got), len(want), i)
}

// FuzzEncodeSegmentMatchesGob builds one day's blocks and one common
// section from the fuzz input. Each segment the hand encoder writes must
// equal gob's bytes (or both must fail), and gob's decode of it, as
// Open/OpenDay runs it, must give the input back through the DTO mapping:
// equal up to what gob does not carry (empty slices arrive nil; a time
// keeps its instant and zone offset, not its *Location).
func FuzzEncodeSegmentMatchesGob(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		day := in.int()
		blocks := draw(&in, 4, in.block)
		common := in.common()

		got, err := encodeDay(segmentVersion, day, blocks)
		want, gerr := gobDay(day, blocks)
		if (err == nil) != (gerr == nil) {
			t.Fatalf("day segment: encoder err = %v, gob err = %v", err, gerr)
		}
		if err == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("day segment: %s", firstDiff(got, want))
			}
			var env segDay
			if err := gob.NewDecoder(bytes.NewReader(got)).Decode(&env); err != nil {
				t.Fatalf("decode day segment: %v", err)
			}
			decoded := make([]*dataset.Block, len(env.Blocks))
			for i, d := range env.Blocks {
				decoded[i] = d.block()
			}
			if env.Version != segmentVersion || env.Day != day {
				t.Fatalf("day envelope: version %d day %d, want %d and %d", env.Version, env.Day, segmentVersion, day)
			}
			if !reflect.DeepEqual(canonical(blocks), canonical(decoded)) {
				t.Fatal("day segment does not decode to its blocks")
			}
		}

		got, err = encodeCommon(&segCommon{Version: segmentVersion, Common: common})
		want, gerr = encodeGob(&segCommon{Version: segmentVersion, Common: common})
		if (err == nil) != (gerr == nil) {
			t.Fatalf("common segment: encoder err = %v, gob err = %v", err, gerr)
		}
		if err == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("common segment: %s", firstDiff(got, want))
			}
			var env segCommon
			if err := gob.NewDecoder(bytes.NewReader(got)).Decode(&env); err != nil {
				t.Fatalf("decode common segment: %v", err)
			}
			if env.Version != segmentVersion || !reflect.DeepEqual(canonical(common), canonical(env.Common)) {
				t.Fatal("common segment does not decode to its section")
			}
		}
	})
}

var timeType = reflect.TypeOf(time.Time{})

// canonical returns v rewritten in place to what survives gob: empty
// slices become nil, and every non-zero time keeps only its instant and
// zone offset.
func canonical[T any](v T) T {
	canonicalize(reflect.ValueOf(&v).Elem())
	return v
}

func canonicalize(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			canonicalize(v.Elem())
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		for i := 0; i < v.Len(); i++ {
			canonicalize(v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == timeType {
			if t := v.Interface().(time.Time); t != (time.Time{}) {
				_, off := t.Zone()
				v.Set(reflect.ValueOf(time.Unix(t.Unix(), int64(t.Nanosecond())).In(time.FixedZone("", off))))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				canonicalize(v.Field(i))
			}
		}
	}
}

// fuzzInput draws corpus values from fuzz bytes; once they run out, every
// draw is zero. Each value picks its shape first, so gob's boundaries (a
// one- or multi-byte uint, a byte above 0x7f, a nil or empty slice, a
// zero time) are one byte away.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u64() uint64 {
	switch in.byte() % 4 {
	case 0:
		return 0
	case 1:
		return uint64(in.byte())
	case 2:
		return math.MaxUint64 >> (in.byte() % 64)
	default:
		var x uint64
		for i := 0; i < 8; i++ {
			x = x<<8 | uint64(in.byte())
		}
		return x
	}
}

func (in *fuzzInput) int() int { return int(in.u64()) }

// fill sets b to zeros, to 0xff, or from the input.
func (in *fuzzInput) fill(b []byte) {
	switch in.byte() % 3 {
	case 1:
		for i := range b {
			b[i] = 0xff
		}
	case 2:
		for i := range b {
			b[i] = in.byte()
		}
	}
}

func (in *fuzzInput) hash() (h types.Hash)      { in.fill(h[:]); return h }
func (in *fuzzInput) addr() (a types.Address)   { in.fill(a[:]); return a }
func (in *fuzzInput) pubkey() (p types.PubKey)  { in.fill(p[:]); return p }
func (in *fuzzInput) wei() types.Wei            { return types.Wei{in.u64(), in.u64(), in.u64(), in.u64()} }
func (in *fuzzInput) str() string               { return string(in.bytes()) }
func (in *fuzzInput) flag() bool                { return in.byte()&1 == 1 }
func (in *fuzzInput) seen() []time.Time         { return draw(in, 3, in.time) }
func (in *fuzzInput) topics() []types.Hash      { return draw(in, 3, in.hash) }
func (in *fuzzInput) labels() []mev.Label       { return draw(in, 2, in.label) }
func (in *fuzzInput) bidTraces() []pbs.BidTrace { return draw(in, 2, in.bidTrace) }

// bytes is nil, empty, or 2–255 bytes of a running pattern, so 127 and
// 128 (a one- and a two-byte count) are one draw each.
func (in *fuzzInput) bytes() []byte {
	switch n := in.byte(); n {
	case 0:
		return nil
	case 1:
		return []byte{}
	default:
		b := make([]byte, n)
		c := in.byte()
		for i := range b {
			b[i] = c + byte(i)
		}
		return b
	}
}

// time is the zero Time, a UTC time, or a time in a fixed zone whose
// offset may carry seconds (gob's 16-byte form) or be one gob refuses
// (-1 minute). A negative offset is whole minutes: time's binary decoding
// reads a negative seconds part back unsigned, so it cannot round-trip.
func (in *fuzzInput) time() time.Time {
	shape := in.byte() % 3
	if shape == 0 {
		return time.Time{}
	}
	t := time.Unix(int64(in.u64())>>2, int64(in.u64()%1e9))
	if shape == 1 {
		return t.UTC()
	}
	off := int(int32(in.u64())) % 200000
	if off < 0 {
		off -= off % 60
	}
	return t.In(time.FixedZone("z", off))
}

// draw is a nil slice, or up to max elements made by elem.
func draw[T any](in *fuzzInput, max int, elem func() T) []T {
	n := in.byte()
	if n == 0 {
		return nil
	}
	s := make([]T, int(n-1)%(max+1))
	for i := range s {
		s[i] = elem()
	}
	return s
}

func (in *fuzzInput) block() *dataset.Block {
	return &dataset.Block{
		Number: in.u64(), Hash: in.hash(), Slot: in.u64(), Time: in.time(),
		FeeRecipient: in.addr(), GasUsed: in.u64(), GasLimit: in.u64(), BaseFee: in.wei(),
		Txs: draw(in, 3, in.tx), Receipts: draw(in, 3, in.receipt), Traces: draw(in, 2, in.trace),
		Burned: in.wei(), Tips: in.wei(),
	}
}

func (in *fuzzInput) tx() *types.Transaction {
	return types.NewTransaction(in.u64(), in.addr(), in.addr(), in.wei(), in.u64(), in.wei(), in.wei(), in.bytes())
}

// receipt is now and then nil, which both encoders must refuse.
func (in *fuzzInput) receipt() *types.Receipt {
	if in.byte() == 0xee {
		return nil
	}
	return &types.Receipt{
		TxHash: in.hash(), Status: in.byte(), GasUsed: in.u64(), EffectiveGasPrice: in.wei(),
		Logs: draw(in, 2, in.log),
	}
}

func (in *fuzzInput) log() types.Log {
	return types.Log{Address: in.addr(), Topics: in.topics(), Data: in.bytes(), TxHash: in.hash(), Index: uint(in.u64())}
}

func (in *fuzzInput) trace() types.Trace {
	return types.Trace{TxHash: in.hash(), From: in.addr(), To: in.addr(), Value: in.wei()}
}

func (in *fuzzInput) common() commonDTO {
	return commonDTO{
		Start:     in.time(),
		End:       in.time(),
		MEVLabels: in.labels(),
		MEVBySource: draw(in, 2, func() sourceDTO {
			return sourceDTO{Source: in.str(), Labels: in.labels()}
		}),
		Arrivals: draw(in, 3, func() p2p.Observation {
			return p2p.Observation{TxHash: in.hash(), Seen: in.seen()}
		}),
		Relays: draw(in, 2, in.relay),
		Sanctions: draw(in, 2, func() ofac.Designation {
			return ofac.Designation{Address: in.addr(), Name: in.str(), Designated: in.time()}
		}),
		BuilderLabels: draw(in, 2, func() labelDTO {
			return labelDTO{Addr: in.addr(), Name: in.str()}
		}),
	}
}

func (in *fuzzInput) label() mev.Label {
	return mev.Label{Block: in.u64(), Kind: mev.Kind(in.byte()), Txs: in.topics(), Victim: in.hash(), Actor: in.addr()}
}

func (in *fuzzInput) relay() dataset.RelayData {
	return dataset.RelayData{
		Name: in.str(), Endpoint: in.str(), Fork: in.str(), BuilderAccess: in.str(),
		OFACCompliant: in.flag(), MEVFilter: in.flag(),
		Delivered: in.bidTraces(), Received: in.bidTraces(), ValidatorCount: in.int(),
	}
}

func (in *fuzzInput) bidTrace() pbs.BidTrace {
	return pbs.BidTrace{
		Slot: in.u64(), ParentHash: in.hash(), BlockHash: in.hash(),
		BuilderPubkey: in.pubkey(), ProposerPubkey: in.pubkey(), ProposerFeeRecipient: in.addr(),
		GasLimit: in.u64(), GasUsed: in.u64(), Value: in.wei(), NumTx: in.int(), BlockNumber: in.u64(),
	}
}
