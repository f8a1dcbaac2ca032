// Agent auto-registration: the one place the pull design inverts. A
// coordinator that serves a Registry lets agents announce themselves
// (POST /api/v1/register, authenticated like every other fleet RPC)
// instead of being pre-listed in -agents. Registration doubles as the
// liveness heartbeat: a member that stops re-registering expires off the
// roster, and a draining agent deregisters itself explicitly. The
// coordinator merges the live roster with the static list each scheduling
// pass and journals every membership transition, so -resume can rebuild
// the dynamic fleet and re-attach to leases held by self-registered
// agents.

package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/ethpbs/pbslab/internal/serve"
)

// DefaultRegistryHeartbeat is the re-registration period handed to agents
// when the Registry is built with zero.
const DefaultRegistryHeartbeat = 5 * time.Second

// AgentMember is one live roster entry.
type AgentMember struct {
	Spec    AgentSpec
	Boot    string
	Version string
}

type member struct {
	AgentMember
	expires  time.Time
	draining bool
}

// Registry tracks self-registered agents. It is an http.Handler (mount it
// on the coordinator's listener) plus a Snapshot the scheduler merges.
type Registry struct {
	auth           *serve.Authenticator
	heartbeatEvery time.Duration
	now            func() time.Time

	mu      sync.Mutex
	members map[string]*member
	handler http.Handler
}

// NewRegistry builds a registry. auth may be nil (unauthenticated — only
// sensible on loopback); heartbeatEvery <= 0 uses the default. A member
// that misses three heartbeats expires.
func NewRegistry(auth *serve.Authenticator, heartbeatEvery time.Duration) *Registry {
	if heartbeatEvery <= 0 {
		heartbeatEvery = DefaultRegistryHeartbeat
	}
	r := &Registry{
		auth:           auth,
		heartbeatEvery: heartbeatEvery,
		now:            time.Now,
		members:        map[string]*member{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+RegistryPathRegister, r.handleRegister)
	mux.HandleFunc("POST "+RegistryPathDeregister, r.handleDeregister)
	var h http.Handler = mux
	if auth != nil {
		h = auth.Middleware(h)
	}
	r.handler = serve.Recover(h, nil)
	return r
}

// ttl is how long a registration stays live without a heartbeat.
func (r *Registry) ttl() time.Duration { return 3 * r.heartbeatEvery }

// HeartbeatEvery is the re-registration period the registry advertises.
func (r *Registry) HeartbeatEvery() time.Duration { return r.heartbeatEvery }

// ServeHTTP implements http.Handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.handler.ServeHTTP(w, req)
}

func (r *Registry) handleRegister(w http.ResponseWriter, req *http.Request) {
	var rr RegisterRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&rr); err != nil {
		http.Error(w, "bad register body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if rr.Addr == "" {
		http.Error(w, "register: addr is required", http.StatusBadRequest)
		return
	}
	if rr.Capacity < 1 {
		rr.Capacity = 1
	}
	now := r.now()
	r.mu.Lock()
	if rr.Draining {
		delete(r.members, rr.Addr)
	} else {
		r.members[rr.Addr] = &member{
			AgentMember: AgentMember{
				Spec:    AgentSpec{Addr: rr.Addr, Capacity: rr.Capacity, TLS: rr.TLS},
				Boot:    rr.Boot,
				Version: rr.Version,
			},
			expires: now.Add(r.ttl()),
		}
	}
	r.mu.Unlock()
	reply, _ := json.Marshal(RegisterReply{OK: true, HeartbeatEvery: r.heartbeatEvery})
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(reply)
}

func (r *Registry) handleDeregister(w http.ResponseWriter, req *http.Request) {
	var rr RegisterRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&rr); err != nil {
		http.Error(w, "bad deregister body: "+err.Error(), http.StatusBadRequest)
		return
	}
	r.mu.Lock()
	delete(r.members, rr.Addr)
	r.mu.Unlock()
	reply, _ := json.Marshal(RegisterReply{OK: true, HeartbeatEvery: r.heartbeatEvery})
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(reply)
}

// Snapshot returns the live roster, expired members pruned, sorted by
// address for deterministic merge order.
func (r *Registry) Snapshot() []AgentMember {
	now := r.now()
	r.mu.Lock()
	out := make([]AgentMember, 0, len(r.members))
	for addr, m := range r.members {
		if now.After(m.expires) {
			delete(r.members, addr)
			continue
		}
		out = append(out, m.AgentMember)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Addr < out[j].Spec.Addr })
	return out
}
