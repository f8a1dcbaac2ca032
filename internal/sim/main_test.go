package sim

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/types"
)

// TestMain runs every test of the package with the adoption cross-check
// on: each block the slot engine adopts from its builder is executed again
// on a fresh fork, and any difference fails the run at that block. The
// goldens, the windows and kill-and-resume all run under it.
func TestMain(m *testing.M) {
	adoptCheck = reexecuteAdopted
	os.Exit(m.Run())
}

// reexecuteAdopted re-runs block through chain.ValidateFork and requires
// what the engine adopted to match it: the same error outcome, the same
// ProcessResult (receipts with their log indices, traces, gas, burned fees
// and tips) and the same writes on the two forks of the head state.
func reexecuteAdopted(c *chain.Chain, block *types.Block, adopted cachedValidation) error {
	res, st, err := c.ValidateFork(block)
	if st != nil {
		defer st.Release()
	}
	where := fmt.Sprintf("block %d (%s)", block.Number(), block.Hash())
	switch {
	case (err == nil) != (adopted.err == nil) || err != nil && err.Error() != adopted.err.Error():
		return fmt.Errorf("%s: validation outcome differs: re-executed %v, adopted %v", where, err, adopted.err)
	case err != nil:
		return nil
	case adopted.res == nil || adopted.st == nil:
		return fmt.Errorf("%s: adopted no execution", where)
	case !reflect.DeepEqual(res, adopted.res):
		return fmt.Errorf("%s: execution result differs from re-execution", where)
	case !reflect.DeepEqual(st.Writes(), adopted.st.Writes()):
		return fmt.Errorf("%s: post-state writes differ from re-execution", where)
	}
	return nil
}
