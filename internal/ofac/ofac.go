// Package ofac models the U.S. Treasury OFAC SDN sanctions list as the
// paper uses it: a set of Ethereum addresses with designation dates, where
// an address counts as sanctioned only from the day *after* its designation
// (the paper's rule, since OFAC updates carry no intraday timestamp but are
// immediately effective).
//
// The registry ships with the designation waves the paper discusses: the
// August 2022 Tornado Cash designations that predate the merge, the
// 2022-11-08 update, and the 2023-02-01 update whose propagation lag into
// relay blacklists Section 6 highlights.
package ofac

import (
	"sort"
	"time"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/types"
)

// Designation is one sanctioned address with the date OFAC listed it.
type Designation struct {
	Address    types.Address
	Name       string    // human label for reports
	Designated time.Time // date of the OFAC action (UTC)
}

// Effective returns the instant from which the paper's analysis treats the
// address as sanctioned: the start of the day after designation.
func (d Designation) Effective() time.Time {
	day := time.Date(d.Designated.Year(), d.Designated.Month(), d.Designated.Day(), 0, 0, 0, 0, time.UTC)
	return day.Add(24 * time.Hour)
}

// Registry is an immutable-after-construction set of designations with
// time-aware lookups. It is safe for concurrent readers.
type Registry struct {
	byAddr map[types.Address]Designation
}

// NewRegistry builds a registry from designations. Duplicate addresses keep
// the earliest designation date.
func NewRegistry(designations []Designation) *Registry {
	r := &Registry{byAddr: make(map[types.Address]Designation, len(designations))}
	for _, d := range designations {
		if prev, ok := r.byAddr[d.Address]; ok && prev.Designated.Before(d.Designated) {
			continue
		}
		r.byAddr[d.Address] = d
	}
	return r
}

// IsSanctioned reports whether addr counts as sanctioned at time at,
// applying the day-after-designation rule.
func (r *Registry) IsSanctioned(addr types.Address, at time.Time) bool {
	d, ok := r.byAddr[addr]
	return ok && !at.Before(d.Effective())
}

// Lookup returns the designation for addr, if any.
func (r *Registry) Lookup(addr types.Address) (Designation, bool) {
	d, ok := r.byAddr[addr]
	return d, ok
}

// Snapshot returns the set of addresses sanctioned at time at, rebuilt on
// every call. Enforcers read the same sets from a precomputed Schedule,
// whose tests use Snapshot as the reference.
func (r *Registry) Snapshot(at time.Time) map[types.Address]bool {
	out := make(map[types.Address]bool)
	for addr, d := range r.byAddr {
		if !at.Before(d.Effective()) {
			out[addr] = true
		}
	}
	return out
}

// All returns every designation sorted by date then address; for reports.
func (r *Registry) All() []Designation {
	out := make([]Designation, 0, len(r.byAddr))
	for _, d := range r.byAddr {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Designated.Equal(out[j].Designated) {
			return out[i].Designated.Before(out[j].Designated)
		}
		return out[i].Address.Hex() < out[j].Address.Hex()
	})
	return out
}

// Len returns the number of designated addresses.
func (r *Registry) Len() int { return len(r.byAddr) }

// Schedule is a precomputed, time-indexed view of a registry's blacklist:
// one cumulative address set per distinct application boundary. Enforcers
// that would otherwise rebuild their sanction set per lookup (relays and
// filtering builders do one per block submission) resolve it with a binary
// search instead. The maps returned by At are shared — callers must treat
// them as read-only — which also makes a Schedule safe for concurrent
// readers once built.
type Schedule struct {
	boundaries []time.Time
	sets       []map[types.Address]bool
}

// NewSchedule precomputes the blacklist at every distinct application
// boundary. applied maps a designation to the instant the enforcer actually
// starts filtering it (relay lag schedules); nil applies the registry's
// day-after rule. The schedule reproduces exactly the membership of a
// per-lookup rebuild: an address is blacklisted at t iff t is not before
// its applied instant.
func NewSchedule(reg *Registry, applied func(Designation) time.Time) *Schedule {
	type entry struct {
		at   time.Time
		addr types.Address
	}
	entries := make([]entry, 0, reg.Len())
	for _, d := range reg.All() {
		at := d.Effective()
		if applied != nil {
			at = applied(d)
		}
		entries = append(entries, entry{at: at, addr: d.Address})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].at.Before(entries[j].at) })

	s := &Schedule{}
	for i := 0; i < len(entries); {
		j := i
		for j < len(entries) && entries[j].at.Equal(entries[i].at) {
			j++
		}
		set := make(map[types.Address]bool, j)
		if n := len(s.sets); n > 0 {
			for a := range s.sets[n-1] {
				set[a] = true
			}
		}
		for _, e := range entries[i:j] {
			set[e.addr] = true
		}
		s.boundaries = append(s.boundaries, entries[i].at)
		s.sets = append(s.sets, set)
		i = j
	}
	return s
}

// At returns the blacklist in force at t: nil before the first boundary,
// otherwise the cumulative set of the latest boundary not after t. The
// returned map is shared and read-only.
func (s *Schedule) At(t time.Time) map[types.Address]bool {
	idx := sort.Search(len(s.boundaries), func(i int) bool { return s.boundaries[i].After(t) }) - 1
	if idx < 0 {
		return nil
	}
	return s.sets[idx]
}

// UpdateDates returns the distinct designation dates in order; the censorship
// analysis correlates relay filtering gaps with these.
func (r *Registry) UpdateDates() []time.Time {
	seen := map[time.Time]bool{}
	var dates []time.Time
	for _, d := range r.byAddr {
		day := time.Date(d.Designated.Year(), d.Designated.Month(), d.Designated.Day(), 0, 0, 0, 0, time.UTC)
		if !seen[day] {
			seen[day] = true
			dates = append(dates, day)
		}
	}
	sort.Slice(dates, func(i, j int) bool { return dates[i].Before(dates[j]) })
	return dates
}

// The designation waves the paper's measurement window covers. Dates are the
// real OFAC action dates; addresses are synthetic stand-ins derived from
// stable seeds (the analysis only needs identity, not the real SDN values).
var (
	// TornadoCashDate is the initial Tornado Cash designation (pre-merge).
	TornadoCashDate = time.Date(2022, 8, 8, 0, 0, 0, 0, time.UTC)
	// NovemberUpdateDate is the 2022-11-08 update the paper links to the
	// Flashbots blacklist lagging until 2022-11-10.
	NovemberUpdateDate = time.Date(2022, 11, 8, 0, 0, 0, 0, time.UTC)
	// FebruaryUpdateDate is the 2023-02-01 update still missing from the
	// Flashbots blacklist on 2023-05-01.
	FebruaryUpdateDate = time.Date(2023, 2, 1, 0, 0, 0, 0, time.UTC)
)

// Wave sizes for the default list, chosen so the full registry holds 134
// addresses as in Table 1.
const (
	tornadoWaveSize  = 100
	novemberWaveSize = 24
	februaryWaveSize = 10
)

// DefaultList builds the 134-address registry used by the default scenario,
// with the three designation waves above.
func DefaultList() *Registry {
	var ds []Designation
	wave := func(prefix string, n int, date time.Time) {
		for i := 0; i < n; i++ {
			ds = append(ds, Designation{
				Address:    crypto.AddressFromSeed(prefix + "/" + itoa(i)),
				Name:       prefix + "-" + itoa(i),
				Designated: date,
			})
		}
	}
	wave("ofac/tornado", tornadoWaveSize, TornadoCashDate)
	wave("ofac/nov2022", novemberWaveSize, NovemberUpdateDate)
	wave("ofac/feb2023", februaryWaveSize, FebruaryUpdateDate)
	return NewRegistry(ds)
}

// itoa avoids strconv for this tiny use; designations are built once.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
