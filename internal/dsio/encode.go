// The segment encoder: encoding/gob's exact bytes for a segment envelope,
// written by hand (see "Encoding" in the package doc). gob builds each
// message in a buffer it regrows, walks the value through reflection and
// allocates for every time.Time; this encoder sizes the segment first and
// appends it into one buffer of exactly that size.
//
// A segment is what a fresh gob.Encoder writes for its envelope: the
// type-descriptor messages, then one value message — its length as a
// uint, the envelope's type id as an int, then the struct. Inside a
// struct:
//
//   - a field goes out as the uint delta of its field number from the
//     previous one sent (starting from -1), then its value; the struct
//     ends with a 0;
//   - zero uints, ints and bools, empty strings and empty slices are
//     omitted; arrays and nested structs are always sent;
//   - an array or slice is a uint count, then every element, zero
//     elements included; a [N]byte element is a gob uint, so a byte above
//     0x7f takes two;
//   - a []byte or string is a uint count, then the raw bytes;
//   - a time.Time is its GobEncode bytes as a []byte; a time field is
//     omitted when it equals time.Time{}, an element of []time.Time never.

package dsio

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/p2p"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/types"
)

// gobWire is what a fresh gob.Encoder sends for one envelope type ahead of
// the value: its type-descriptor messages, and the type id that opens the
// value message, kept as the uint gob sends for it. init takes both from
// gob itself.
type gobWire struct {
	prefix []byte
	id     uint64
}

var commonWire, dayWire gobWire

// pinWire gob-encodes v, an envelope's zero value, with a fresh encoder and
// splits the stream: every message but the last is a type descriptor, and
// the last is the value, opened by its type id. It returns the stream too.
func pinWire(v any) (gobWire, []byte) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("dsio: pin gob type IDs: %v", err))
	}
	stream := buf.Bytes()
	last := 0
	for off := 0; off < len(stream); {
		n, w := readUint(stream[off:])
		last, off = off, off+w+int(n)
	}
	_, w := readUint(stream[last:])
	id, _ := readUint(stream[last+w:])
	return gobWire{prefix: stream[:last:last], id: id}, stream
}

// readUint decodes one gob uint from the front of b, returning it and its
// width. It reads only streams gob.Encoder just wrote.
func readUint(b []byte) (uint64, int) {
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// encodeCommon writes env as the common segment.
func encodeCommon(env *segCommon) ([]byte, error) {
	return encodeSegment(&commonWire, func(e *segEncoder) { e.common(env) })
}

// encodeDay writes one day's blocks as the segDay envelope that
// blockDTO/txDTO describe, reading the blocks in place.
func encodeDay(version, day int, blocks []*dataset.Block) ([]byte, error) {
	return encodeSegment(&dayWire, func(e *segEncoder) { e.day(version, day, blocks) })
}

// encodeSegment writes w's descriptor prefix, then the value message whose
// body walk emits. The walk runs twice: once to size the segment, once to
// append it into a buffer of exactly that size.
func encodeSegment(w *gobWire, walk func(*segEncoder)) ([]byte, error) {
	e := &segEncoder{sizing: true}
	walk(e)
	if e.err != nil {
		return nil, e.err
	}
	msg := uintLen(w.id) + e.n
	size := len(w.prefix) + uintLen(uint64(msg)) + msg
	e.sizing, e.buf = false, make([]byte, 0, size)
	e.buf = append(e.buf, w.prefix...)
	e.buf = appendUint(e.buf, uint64(msg))
	e.buf = appendUint(e.buf, w.id)
	walk(e)
	if e.err != nil {
		return nil, e.err
	}
	if len(e.buf) != size {
		return nil, fmt.Errorf("dsio: segment sized at %d bytes, wrote %d", size, len(e.buf))
	}
	return e.buf, nil
}

// segEncoder emits gob values: in the sizing pass it only counts bytes,
// in the writing pass it appends them to buf.
type segEncoder struct {
	sizing bool
	n      int
	buf    []byte
	err    error
}

func (e *segEncoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *segEncoder) uint(x uint64) {
	if e.sizing {
		e.n += uintLen(x)
		return
	}
	e.buf = appendUint(e.buf, x)
}

// raw emits a []byte: its length, then the bytes.
func (e *segEncoder) raw(b []byte) {
	e.uint(uint64(len(b)))
	if e.sizing {
		e.n += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

func (e *segEncoder) str(s string) {
	e.uint(uint64(len(s)))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

// array emits a [N]byte: its length, then each byte as a gob uint.
func (e *segEncoder) array(b []byte) {
	if e.sizing {
		e.n += uintLen(uint64(len(b))) + len(b) + highBytes(b)
		return
	}
	e.buf = appendUint(e.buf, uint64(len(b)))
	i, n := len(e.buf), len(b)+highBytes(b)
	e.buf = slices.Grow(e.buf, n)[:i+n]
	for _, c := range b {
		// Branch-free: a byte above 0x7f keeps the 0xff in front of it.
		e.buf[i] = 0xff
		i += int(c >> 7)
		e.buf[i] = c
		i++
	}
}

func (e *segEncoder) wei(w *types.Wei) {
	e.uint(uint64(len(w)))
	for _, x := range w {
		e.uint(x)
	}
}

// time emits t's GobEncode bytes, as gob does for every GobEncoder. The
// sizing pass knows a UTC time's without encoding it: 15 bytes (version,
// seconds, nanoseconds, and offset -1), after their 1-byte count.
func (e *segEncoder) time(t time.Time) {
	if e.sizing && t.Location() == time.UTC {
		e.n += 1 + 15
		return
	}
	data, err := t.GobEncode()
	if err != nil {
		e.fail(err)
		return
	}
	e.raw(data)
}

// fields sends one struct's fields: each present field as the delta of
// its number from the last one sent, and a 0 to end the struct.
type fields struct {
	e    *segEncoder
	last int
}

func (e *segEncoder) fields() fields { return fields{e: e, last: -1} }

// at opens field i and returns the encoder for its value.
func (f *fields) at(i int) *segEncoder {
	f.e.uint(uint64(i - f.last))
	f.last = i
	return f.e
}

func (f *fields) uint(i int, x uint64) {
	if x != 0 {
		f.at(i).uint(x)
	}
}

func (f *fields) int(i int, x int64) { f.uint(i, zigzag(x)) }

func (f *fields) bool(i int, x bool) {
	if x {
		f.at(i).uint(1)
	}
}

func (f *fields) str(i int, s string) {
	if s != "" {
		f.at(i).str(s)
	}
}

func (f *fields) raw(i int, b []byte) {
	if len(b) > 0 {
		f.at(i).raw(b)
	}
}

// time omits the zero Time by struct equality, which is reflect's IsZero
// for time.Time (location pointer included), the test gob applies.
func (f *fields) time(i int, t time.Time) {
	if t != (time.Time{}) {
		f.at(i).time(t)
	}
}

// slice opens a slice field of n elements and reports whether the
// elements follow: an empty slice is omitted.
func (f *fields) slice(i, n int) bool {
	if n == 0 {
		return false
	}
	f.at(i).uint(uint64(n))
	return true
}

func (f *fields) end() { f.e.uint(0) }

// day is segDay{Version, Day, Blocks}.
func (e *segEncoder) day(version, day int, blocks []*dataset.Block) {
	f := e.fields()
	f.int(0, int64(version))
	f.int(1, int64(day))
	if f.slice(2, len(blocks)) {
		for _, b := range blocks {
			e.block(b)
		}
	}
	f.end()
}

// block is blockDTO, with each transaction as its txDTO.
func (e *segEncoder) block(b *dataset.Block) {
	f := e.fields()
	f.uint(0, b.Number)
	f.at(1).array(b.Hash[:])
	f.uint(2, b.Slot)
	f.time(3, b.Time)
	f.at(4).array(b.FeeRecipient[:])
	f.uint(5, b.GasUsed)
	f.uint(6, b.GasLimit)
	f.at(7).wei(&b.BaseFee)
	if f.slice(8, len(b.Txs)) {
		for j, tx := range b.Txs {
			if tx == nil {
				e.fail(fmt.Errorf("block %d: nil transaction %d", b.Number, j))
				return
			}
			e.tx(tx)
		}
	}
	if f.slice(9, len(b.Receipts)) {
		for j, r := range b.Receipts {
			// gob refuses this too ("encodeArray: nil element").
			if r == nil {
				e.fail(fmt.Errorf("block %d: nil receipt %d", b.Number, j))
				return
			}
			e.receipt(r)
		}
	}
	if f.slice(10, len(b.Traces)) {
		for j := range b.Traces {
			e.trace(&b.Traces[j])
		}
	}
	f.at(11).wei(&b.Burned)
	f.at(12).wei(&b.Tips)
	f.end()
}

func (e *segEncoder) tx(tx *types.Transaction) {
	f := e.fields()
	f.uint(0, tx.Nonce)
	f.at(1).array(tx.From[:])
	f.at(2).array(tx.To[:])
	f.at(3).wei(&tx.Value)
	f.uint(4, tx.Gas)
	f.at(5).wei(&tx.MaxFee)
	f.at(6).wei(&tx.MaxTip)
	f.raw(7, tx.Data)
	f.end()
}

func (e *segEncoder) receipt(r *types.Receipt) {
	f := e.fields()
	f.at(0).array(r.TxHash[:])
	f.uint(1, uint64(r.Status))
	f.uint(2, r.GasUsed)
	f.at(3).wei(&r.EffectiveGasPrice)
	if f.slice(4, len(r.Logs)) {
		for i := range r.Logs {
			e.log(&r.Logs[i])
		}
	}
	f.end()
}

func (e *segEncoder) log(l *types.Log) {
	f := e.fields()
	f.at(0).array(l.Address[:])
	if f.slice(1, len(l.Topics)) {
		for i := range l.Topics {
			e.array(l.Topics[i][:])
		}
	}
	f.raw(2, l.Data)
	f.at(3).array(l.TxHash[:])
	f.uint(4, uint64(l.Index))
	f.end()
}

func (e *segEncoder) trace(t *types.Trace) {
	f := e.fields()
	f.at(0).array(t.TxHash[:])
	f.at(1).array(t.From[:])
	f.at(2).array(t.To[:])
	f.at(3).wei(&t.Value)
	f.end()
}

// common is segCommon{Version, Common}; the commonDTO inside is a nested
// struct, so it is sent even when empty.
func (e *segEncoder) common(env *segCommon) {
	f := e.fields()
	f.int(0, int64(env.Version))
	f.at(1)
	c := &env.Common
	g := e.fields()
	g.time(0, c.Start)
	g.time(1, c.End)
	if g.slice(2, len(c.MEVLabels)) {
		for i := range c.MEVLabels {
			e.label(&c.MEVLabels[i])
		}
	}
	if g.slice(3, len(c.MEVBySource)) {
		for i := range c.MEVBySource {
			s := &c.MEVBySource[i]
			h := e.fields()
			h.str(0, s.Source)
			if h.slice(1, len(s.Labels)) {
				for j := range s.Labels {
					e.label(&s.Labels[j])
				}
			}
			h.end()
		}
	}
	if g.slice(4, len(c.Arrivals)) {
		for i := range c.Arrivals {
			e.observation(&c.Arrivals[i])
		}
	}
	if g.slice(5, len(c.Relays)) {
		for i := range c.Relays {
			e.relay(&c.Relays[i])
		}
	}
	if g.slice(6, len(c.Sanctions)) {
		for i := range c.Sanctions {
			e.designation(&c.Sanctions[i])
		}
	}
	if g.slice(7, len(c.BuilderLabels)) {
		for i := range c.BuilderLabels {
			l := &c.BuilderLabels[i]
			h := e.fields()
			h.at(0).array(l.Addr[:])
			h.str(1, l.Name)
			h.end()
		}
	}
	g.end()
	f.end()
}

func (e *segEncoder) label(l *mev.Label) {
	f := e.fields()
	f.uint(0, l.Block)
	f.uint(1, uint64(l.Kind))
	if f.slice(2, len(l.Txs)) {
		for i := range l.Txs {
			e.array(l.Txs[i][:])
		}
	}
	f.at(3).array(l.Victim[:])
	f.at(4).array(l.Actor[:])
	f.end()
}

func (e *segEncoder) observation(o *p2p.Observation) {
	f := e.fields()
	f.at(0).array(o.TxHash[:])
	if f.slice(1, len(o.Seen)) {
		for _, t := range o.Seen {
			e.time(t)
		}
	}
	f.end()
}

func (e *segEncoder) relay(r *dataset.RelayData) {
	f := e.fields()
	f.str(0, r.Name)
	f.str(1, r.Endpoint)
	f.str(2, r.Fork)
	f.str(3, r.BuilderAccess)
	f.bool(4, r.OFACCompliant)
	f.bool(5, r.MEVFilter)
	if f.slice(6, len(r.Delivered)) {
		for i := range r.Delivered {
			e.bidTrace(&r.Delivered[i])
		}
	}
	if f.slice(7, len(r.Received)) {
		for i := range r.Received {
			e.bidTrace(&r.Received[i])
		}
	}
	f.int(8, int64(r.ValidatorCount))
	f.end()
}

func (e *segEncoder) bidTrace(t *pbs.BidTrace) {
	f := e.fields()
	f.uint(0, t.Slot)
	f.at(1).array(t.ParentHash[:])
	f.at(2).array(t.BlockHash[:])
	f.at(3).array(t.BuilderPubkey[:])
	f.at(4).array(t.ProposerPubkey[:])
	f.at(5).array(t.ProposerFeeRecipient[:])
	f.uint(6, t.GasLimit)
	f.uint(7, t.GasUsed)
	f.at(8).wei(&t.Value)
	f.int(9, int64(t.NumTx))
	f.uint(10, t.BlockNumber)
	f.end()
}

func (e *segEncoder) designation(d *ofac.Designation) {
	f := e.fields()
	f.at(0).array(d.Address[:])
	f.str(1, d.Name)
	f.time(2, d.Designated)
	f.end()
}

// highBytes counts the bytes of b above 0x7f, eight at a time.
func highBytes(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(b) & 0x8080808080808080)
	}
	for _, c := range b {
		n += int(c >> 7)
	}
	return n
}

// uintLen is the width of x as a gob uint: one byte up to 0x7f, otherwise
// a byte holding the negated count, then x's big-endian bytes.
func uintLen(x uint64) int {
	if x <= 0x7f {
		return 1
	}
	return 1 + 8 - bits.LeadingZeros64(x)/8
}

func appendUint(b []byte, x uint64) []byte {
	if x <= 0x7f {
		return append(b, byte(x))
	}
	n := 8 - bits.LeadingZeros64(x)/8
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

// zigzag maps a gob int onto the uint it is sent as: the value shifted
// left one bit, complemented when negative, with the sign in bit 0.
func zigzag(x int64) uint64 {
	if x < 0 {
		return uint64(^x<<1) | 1
	}
	return uint64(x << 1)
}
