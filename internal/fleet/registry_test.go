package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/serve"
)

func registerBody(t *testing.T, rr RegisterRequest) []byte {
	t.Helper()
	data, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postRegister(t *testing.T, r *Registry, auth *serve.Authenticator, path string, rr RegisterRequest) *httptest.ResponseRecorder {
	t.Helper()
	body := registerBody(t, rr)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if auth != nil {
		if err := auth.Sign(req, body); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	r.ServeHTTP(w, req)
	return w
}

func TestRegistryRegisterHeartbeatExpire(t *testing.T) {
	r := NewRegistry(nil, 100*time.Millisecond)
	cur := time.Unix(1_700_000_000, 0)
	r.now = func() time.Time { return cur }

	w := postRegister(t, r, nil, RegistryPathRegister, RegisterRequest{Addr: "h1:9", Capacity: 2})
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	var reply RegisterReply
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if !reply.OK || reply.HeartbeatEvery != 100*time.Millisecond {
		t.Fatalf("reply = %+v", reply)
	}
	if got := r.Snapshot(); len(got) != 1 || got[0].Spec.Addr != "h1:9" || got[0].Spec.Capacity != 2 {
		t.Fatalf("snapshot = %+v", got)
	}

	// Heartbeats keep it alive past the original TTL.
	cur = cur.Add(250 * time.Millisecond)
	postRegister(t, r, nil, RegistryPathRegister, RegisterRequest{Addr: "h1:9", Capacity: 2})
	cur = cur.Add(250 * time.Millisecond)
	if got := r.Snapshot(); len(got) != 1 {
		t.Fatalf("heartbeated member expired: %+v", got)
	}

	// Silence for over 3 heartbeats expires it.
	cur = cur.Add(time.Second)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("silent member survived: %+v", got)
	}
}

func TestRegistryDrainingAndDeregister(t *testing.T) {
	r := NewRegistry(nil, time.Second)
	postRegister(t, r, nil, RegistryPathRegister, RegisterRequest{Addr: "h1:9", Capacity: 1})
	postRegister(t, r, nil, RegistryPathRegister, RegisterRequest{Addr: "h2:9", Capacity: 1})
	if got := r.Snapshot(); len(got) != 2 {
		t.Fatalf("snapshot = %+v", got)
	}
	// A draining registration deregisters.
	postRegister(t, r, nil, RegistryPathRegister, RegisterRequest{Addr: "h1:9", Capacity: 1, Draining: true})
	// Explicit deregister drops the other.
	postRegister(t, r, nil, RegistryPathDeregister, RegisterRequest{Addr: "h2:9"})
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot after drain/deregister = %+v", got)
	}
}

func TestRegistryRejectsUnsignedWhenAuthed(t *testing.T) {
	auth := serve.NewAuthenticator([]byte("fleet-secret"))
	r := NewRegistry(auth, time.Second)

	w := postRegister(t, r, nil, RegistryPathRegister, RegisterRequest{Addr: "h1:9", Capacity: 1})
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("unsigned register: got %d, want 401", w.Code)
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("unsigned register mutated the roster: %+v", got)
	}

	w = postRegister(t, r, auth, RegistryPathRegister, RegisterRequest{Addr: "h1:9", Capacity: 1})
	if w.Code != http.StatusOK {
		t.Fatalf("signed register: %d %s", w.Code, w.Body)
	}
	if got := r.Snapshot(); len(got) != 1 {
		t.Fatalf("signed register ignored: %+v", got)
	}
}

func TestReplayStateDynamicRoster(t *testing.T) {
	recs := []Record{
		{Event: EventAgentJoin, Agent: "h1:9", Capacity: 2, TLSAgent: true},
		{Event: EventAgentJoin, Agent: "h2:9", Capacity: 1},
		{Event: EventAgentLeave, Agent: "h2:9"},
		{Event: EventAgentJoin, Agent: "h3:9", Capacity: 3},
	}
	st := ReplayState(recs)
	if len(st.Agents) != 2 {
		t.Fatalf("agents = %+v", st.Agents)
	}
	if got := st.Agents["h1:9"]; got != (AgentSpec{Addr: "h1:9", Capacity: 2, TLS: true}) {
		t.Fatalf("h1 spec = %+v", got)
	}
	if _, ok := st.Agents["h2:9"]; ok {
		t.Fatal("left member still in roster")
	}
}
