// Package dsio serializes a measurement corpus so a finished run can ship
// its dataset alongside the rendered artifacts. The serving plane
// (internal/serve) loads the corpus back, re-validates every invariant,
// and answers per-day index queries from the same data the figures were
// rendered from — without re-running the simulation.
//
// # Chunked layout
//
// The format is out-of-core (DESIGN.md §11): the corpus lands as a
// dataset/ directory holding one gob segment per day of the window plus a
// JSON segment index. The output directory's manifest, written after every
// file it covers, is the commit point.
//
//	dataset/index.json      SegmentIndex: window, version, per-segment
//	                        name + size + sha256, sorted by day
//	dataset/common.seg      cross-day sections (MEV labels, arrivals,
//	                        relay records, sanctions, builder labels)
//	dataset/day-000000.seg  one day of blocks; every day of the window
//	                        gets a segment, empty days included
//
// A Reader (Open) verifies the index — version, window/segment-count
// agreement, day contiguity from zero — up front, and each segment's size
// and digest lazily on first OpenDay, so a consumer can stream a corpus
// one day at a time holding O(one day) of block data. core.NewStreaming
// builds its fused analysis index exactly this way. EncodeChunked renders
// the layout as in-memory files, which the report/manifest pipeline lands
// on disk with the rest of an output directory. There is no streaming
// writer: the encoded corpus is held in memory once.
//
// # Encoding
//
// Every segment is an encoding/gob stream, and every reader decodes it
// with gob into the DTOs (segCommon, segDay, commonDTO, blockDTO, txDTO).
// gob does not write them: a hand encoder (encode.go) reads dataset.Block
// and the common section in place, sizes each segment in a first pass,
// then appends gob's exact bytes into one buffer of exactly that size. It
// takes each envelope's type-descriptor prefix and type id from gob
// itself, out of the two encodes the init-time type-ID pin already makes,
// and init panics if the encoder disagrees with gob on the empty
// envelopes. A change to a DTO must change the encoder too:
// TestEncodeChunkedMatchesGob and FuzzEncodeSegmentMatchesGob compare its
// output with a gob.Encoder's byte for byte and fail until it does.
//
// The encoding is deterministic: maps are flattened into sorted slices
// before encoding, so the same corpus always encodes to the same bytes and
// the enclosing manifest digest is stable. Transactions travel as DTOs
// without their cached hash; decoding rebuilds them through
// types.NewTransaction, so hashes are recomputed rather than trusted from
// disk (the same rule the simulation checkpoints follow).
//
// Builder labels ride in the common section. They are deliberately not
// part of dataset.Dataset — the dataset package holds only what a real
// crawl could produce — but the CLIs analyze with sim-provided labels, and
// a server answering the same queries needs the same attribution.
package dsio
