package core_test

// Golden byte-identity test for the out-of-core path: an analysis built by
// streaming a chunked on-disk corpus one day at a time must render to the
// committed digest (DESIGN.md §11). Any drift in the disk codec, the
// streamed inclusion-delay accumulation, or the stripped-block bookkeeping
// shows up here as a digest mismatch. Both streaming passes read through a
// oneDaySource, which holds them to the bounded-memory contract.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
)

// oneDaySource serves a DaySource's days to one streaming pass and gives
// that pass at most one day of transaction payload: each day must be
// opened once, in order, and opening day d clears Txs, Receipts and Traces
// on every block served for day d-1. A pass that opens days ahead, or that
// still reads an earlier day's payload, renders off the committed digest.
type oneDaySource struct {
	core.DaySource
	next   int
	prev   []*dataset.Block
	served map[*dataset.Block]bool
}

func newOneDaySource(src core.DaySource) *oneDaySource {
	return &oneDaySource{DaySource: src, served: map[*dataset.Block]bool{}}
}

func (s *oneDaySource) OpenDay(day int) ([]*dataset.Block, error) {
	if day != s.next {
		return nil, fmt.Errorf("OpenDay(%d), want day %d next", day, s.next)
	}
	s.next++
	for _, b := range s.prev {
		b.Txs, b.Receipts, b.Traces = nil, nil, nil
	}
	blocks, err := s.DaySource.OpenDay(day)
	s.prev = blocks
	for _, b := range blocks {
		s.served[b] = true
	}
	return blocks, err
}

// checkAllOpened fails t unless the pass opened every day.
func (s *oneDaySource) checkAllOpened(t *testing.T, pass string) {
	t.Helper()
	if s.next != s.Days() {
		t.Fatalf("%s opened %d of %d days", pass, s.next, s.Days())
	}
}

func TestStreamingMatchesInMemoryGolden(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := goldenDataset(t, seed, 4)
			labels := res.World.BuilderLabels()

			dir := t.TempDir()
			files, err := dsio.EncodeChunked(res.Dataset, labels)
			if err != nil {
				t.Fatal(err)
			}
			arts := make([]report.Artifact, len(files))
			for i, f := range files {
				arts[i] = report.Artifact{Name: f.Name, Data: f.Data}
			}
			if err := report.WriteArtifacts(dir, arts); err != nil {
				t.Fatal(err)
			}
			r, err := dsio.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			vsrc := newOneDaySource(r)
			if rep, err := core.ValidateStream(vsrc); err != nil {
				t.Fatal(err)
			} else if !rep.OK() {
				t.Fatalf("streamed validation: %d violation(s), first: %s",
					len(rep.Violations), rep.Violations[0])
			}
			vsrc.checkAllOpened(t, "ValidateStream")

			src := newOneDaySource(r)
			streamed, err := core.NewStreaming(context.Background(), src, core.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			src.checkAllOpened(t, "NewStreaming")
			// The analysis keeps header-only copies, never a served block
			// with its payload.
			for _, st := range streamed.Blocks() {
				if b := st.Block; src.served[b] {
					t.Fatalf("block %d is the block the source served, not a stripped copy", b.Number)
				} else if b.Txs != nil || b.Receipts != nil || b.Traces != nil {
					t.Fatalf("block %d keeps its payload", b.Number)
				}
			}
			if got, want := streamed.Counts(), res.Dataset.Count(); !reflect.DeepEqual(got, want) {
				t.Errorf("streamed counts differ:\n%+v\nvs\n%+v", got, want)
			}
			checkRenderDigest(t, seed, "streamed from disk", streamed, 4)
		})
	}
}
