// Crawl checkpoint persistence: a CrawlState can be saved to disk after
// every crawl attempt and loaded back, so a crawler killed mid-harvest —
// process death, not just a dropped connection — resumes from its last
// page instead of re-crawling the relay from the top. Files land via
// atomic temp + rename, so a crash mid-save leaves the previous good
// checkpoint in place.
package relayapi

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/ethpbs/pbslab/internal/atomicio"
)

// Save writes the crawl state to path atomically. Only exported fields are
// persisted; the dedup index is rebuilt from Traces on load.
func (st *CrawlState) Save(path string) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("relayapi: encode crawl state: %w", err)
	}
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("relayapi: save crawl state: %w", err)
	}
	return nil
}

// LoadCrawlState reads a checkpoint written by Save and rebuilds the dedup
// index, ready for ResumeDelivered to continue from it.
func LoadCrawlState(path string) (*CrawlState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &CrawlState{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("relayapi: decode crawl state %s: %w", path, err)
	}
	st.ensureSeen()
	return st, nil
}

// checkpointFileName maps a relay name and endpoint path to a stable file
// name: non-portable characters collapse to '-'.
func checkpointFileName(relay, path string) string {
	endpoint := "delivered"
	if path == PathReceived {
		endpoint = "received"
	}
	sanitized := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, relay)
	return sanitized + "." + endpoint + ".json"
}
