// Scenario knobs: the grid axes the fleet sweeps (relay outages, OFAC
// blacklist schedules, private-flow share, builder populations) expressed
// as validated string/number settings. The single-run CLI (cmd/pbslab) and
// the fleet worker apply knobs through this one code path, so "settable
// from the CLI" and "settable from a grid cell" can never drift apart —
// and a bad value is a validation error before the simulation starts,
// never a silently ignored default.
package cli

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/relay"
	"github.com/ethpbs/pbslab/internal/sim"
)

// Unset is the sentinel for numeric knobs left at the scenario default.
const Unset = -1

// Knobs collects the scenario overrides the experiment grid sweeps. The
// zero value (with numeric fields at Unset) changes nothing.
type Knobs struct {
	// PrivateFlow overrides Demand.PrivateUserFraction (Unset = default).
	// Valid range [0, 1].
	PrivateFlow float64
	// SmallBuilders overrides Scenario.SmallBuilderCount (Unset = default).
	SmallBuilders int
	// RelayOutages declares outage windows, e.g.
	// "Manifold=2022-11-16..2022-11-19,Relayooor=2023-02-10..2023-02-17".
	// They are appended to the scenario's defaults; the special value
	// "none" clears the default outage calendar instead. "" = default.
	RelayOutages string
	// OFACLag reschedules when OFAC designation waves reach relay
	// blacklists, e.g. "2022-11-08=+5d,2023-02-01=never" or "*=on-time".
	// Values: "+Nd" (N days after the day-after-designation rule),
	// "never", "on-time". Applies to every OFAC-compliant relay. "" =
	// the calibrated per-relay lags.
	OFACLag string
	// Scale multiplies the corpus density via sim.Scenario.Scale:
	// blocks/day (and with it tx volume), the demand population, and the
	// long-tail builder population. Unset, 0 and 1 all mean the
	// calibrated 1× miniature; anything else must be >= 1.
	Scale int
}

// DefaultKnobs returns a Knobs with every numeric field at Unset.
func DefaultKnobs() Knobs {
	return Knobs{PrivateFlow: Unset, SmallBuilders: Unset, Scale: Unset}
}

// Apply validates the knobs against sc and mutates it in place. The first
// invalid setting aborts with an error naming the knob and the offending
// value; sc may be partially mutated on error and must be discarded.
func (k Knobs) Apply(sc *sim.Scenario) error {
	if k.PrivateFlow != Unset {
		if k.PrivateFlow < 0 || k.PrivateFlow > 1 {
			return fmt.Errorf("private-flow %v: must be in [0, 1]", k.PrivateFlow)
		}
		sc.Demand.PrivateUserFraction = k.PrivateFlow
	}
	if k.SmallBuilders != Unset {
		if k.SmallBuilders < 0 {
			return fmt.Errorf("small-builders %d: must be >= 0", k.SmallBuilders)
		}
		sc.SmallBuilderCount = k.SmallBuilders
	}
	if err := applyOutages(sc, k.RelayOutages); err != nil {
		return err
	}
	if err := applyOFACLag(sc, k.OFACLag); err != nil {
		return err
	}
	// Scale applies last so it multiplies the population a -small-builders
	// override selected, not the default it replaced. Zero means unset so
	// a zero-valued Knobs changes nothing.
	if k.Scale != Unset && k.Scale != 0 {
		scaled, err := sc.Scale(k.Scale)
		if err != nil {
			return err
		}
		*sc = scaled
	}
	return nil
}

// applyOutages parses and applies the relay-outage knob.
func applyOutages(sc *sim.Scenario, spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	if spec == "none" {
		sc.RelayOutages = nil
		return nil
	}
	known := map[string]bool{}
	for _, p := range sc.Relays {
		known[p.Name] = true
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, span, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("relay-outages %q: want RELAY=FROM..TO", entry)
		}
		name = strings.TrimSpace(name)
		if !known[name] {
			return fmt.Errorf("relay-outages %q: unknown relay (have %s)", name, strings.Join(sortedKeys(known), ", "))
		}
		fromS, toS, ok := strings.Cut(span, "..")
		if !ok {
			return fmt.Errorf("relay-outages %q: want RELAY=FROM..TO with dates as 2006-01-02", entry)
		}
		from, err := time.Parse("2006-01-02", strings.TrimSpace(fromS))
		if err != nil {
			return fmt.Errorf("relay-outages %q: bad from date: %v", entry, err)
		}
		to, err := time.Parse("2006-01-02", strings.TrimSpace(toS))
		if err != nil {
			return fmt.Errorf("relay-outages %q: bad to date: %v", entry, err)
		}
		if !from.Before(to) {
			return fmt.Errorf("relay-outages %q: from must precede to", entry)
		}
		sc.RelayOutages = append(sc.RelayOutages, sim.RelayOutage{
			Relay:  name,
			Window: sim.Window{From: from, To: to},
		})
	}
	return nil
}

// knownWaves are the OFAC designation waves of the measurement window,
// keyed the way relay.Faults.BlacklistApplied keys them.
func knownWaves() map[string]time.Time {
	return map[string]time.Time{
		ofac.TornadoCashDate.Format("2006-01-02"):    ofac.TornadoCashDate,
		ofac.NovemberUpdateDate.Format("2006-01-02"): ofac.NovemberUpdateDate,
		ofac.FebruaryUpdateDate.Format("2006-01-02"): ofac.FebruaryUpdateDate,
	}
}

// applyOFACLag parses and applies the OFAC-schedule knob: every
// OFAC-compliant relay's blacklist application time for the named waves is
// overridden uniformly.
func applyOFACLag(sc *sim.Scenario, spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	waves := knownWaves()
	overrides := map[string]time.Time{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		waveKey, val, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("ofac-lag %q: want WAVE=+Nd|never|on-time (or * for every wave)", entry)
		}
		waveKey, val = strings.TrimSpace(waveKey), strings.TrimSpace(val)
		var keys []string
		if waveKey == "*" {
			keys = sortedWaveKeys(waves)
		} else {
			if _, ok := waves[waveKey]; !ok {
				return fmt.Errorf("ofac-lag %q: unknown wave (have %s)", waveKey, strings.Join(sortedWaveKeys(waves), ", "))
			}
			keys = []string{waveKey}
		}
		for _, key := range keys {
			at, err := waveApplied(waves[key], val)
			if err != nil {
				return fmt.Errorf("ofac-lag %q: %v", entry, err)
			}
			overrides[key] = at
		}
	}
	for i := range sc.Relays {
		p := &sc.Relays[i]
		if !p.OFACCompliant {
			continue
		}
		applied := make(map[string]time.Time, len(p.Faults.BlacklistApplied)+len(overrides))
		for k, v := range p.Faults.BlacklistApplied {
			applied[k] = v
		}
		for k, v := range overrides {
			applied[k] = v
		}
		p.Faults.BlacklistApplied = applied
	}
	return nil
}

// waveApplied resolves one override value to an application instant for a
// wave designated on date (the day-after rule is the "+0d" baseline).
func waveApplied(designated time.Time, val string) (time.Time, error) {
	effective := designated.Add(24 * time.Hour)
	switch {
	case val == "never":
		return relay.NeverApplied, nil
	case val == "on-time":
		return effective, nil
	case strings.HasPrefix(val, "+") && strings.HasSuffix(val, "d"):
		n, err := strconv.Atoi(val[1 : len(val)-1])
		if err != nil || n < 0 {
			return time.Time{}, fmt.Errorf("bad lag %q: want +Nd with N >= 0", val)
		}
		return effective.Add(time.Duration(n) * 24 * time.Hour), nil
	}
	return time.Time{}, fmt.Errorf("bad value %q: want +Nd, never, or on-time", val)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedWaveKeys(m map[string]time.Time) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
