package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"hypre/internal/bitset"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/relstore"
	"hypre/internal/serve"
	"hypre/internal/workload"
)

// profileCap bounds every profile the benchmark sends, k is every query's
// result size, and batchOps is every /v1/mutate batch's op count.
const (
	profileCap = 24
	k          = 10
	batchOps   = 8
)

// spanIDs is the width of one bitset container span (64k ids): a base
// table past it makes every scan cross spans.
const spanIDs = 1 << 16

// user is one preference owner's canonical profile (capped at
// profileCap) as the engine sees it.
type user struct {
	canon []hypre.ScoredPred
}

// data is a workload's generated input: the citation network in the store,
// the extracted preferences, the HYPRE graph over them, and the users with
// usable profiles in a seeded order, one per distinct fingerprint.
type data struct {
	net    *workload.Network
	store  *relstore.StoreCounters
	users  []user
	stages stageTimes
	// spans and blocks are the base table's 64k-id bitset spans and
	// zone-map blocks as generated, before any mutation.
	spans, blocks int
}

// stageTimes are the three data-building stages of set-up.
type stageTimes struct {
	generate, extract, graph time.Duration
}

// corpusSeed generates every workload's citation network. Like the fixed
// DBLP dump the paper evaluates on, the corpus is one data set per size;
// the run's seed draws the users, the traffic and the mutations over it,
// so run-to-run spread measures the system and not the corpus lottery.
const corpusSeed = 42

// buildData generates the network (papers papers, 3 authors per 10 papers),
// extracts preferences, builds the HYPRE graph, and lists the users whose
// capped positive profile is full, in an order drawn from seed and
// deduplicated by fingerprint so no two users share a cache entry.
func buildData(papers int, seed int64) (*data, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed = corpusSeed
	cfg.NumPapers = papers
	cfg.NumAuthors = max(papers*3/10, 1)
	d := &data{store: &relstore.StoreCounters{}}
	t0 := time.Now()
	net, err := workload.GenerateWith(cfg, relstore.WithGroupCommit(true), relstore.WithStoreCounters(d.store))
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	t1 := time.Now()
	prefs := workload.Extract(net, workload.DefaultExtractConfig())
	t2 := time.Now()
	g := hypre.NewGraph(hypre.DefaultAvg)
	if _, err := g.Build(prefs.Quant, prefs.Qual); err != nil {
		return nil, fmt.Errorf("graph build: %w", err)
	}
	t3 := time.Now()
	d.net = net
	rows := net.DB.Table("dblp").Len()
	d.spans, d.blocks = (rows+spanIDs-1)/spanIDs, (rows+bitset.BlockBits-1)/bitset.BlockBits
	d.stages = stageTimes{generate: t1.Sub(t0), extract: t2.Sub(t1), graph: t3.Sub(t2)}

	seen := make(map[combine.Fingerprint]bool)
	var full, some []user
	for _, uid := range prefs.Users {
		p := g.PositiveProfile(uid)
		if len(p) > profileCap {
			p = p[:profileCap]
		}
		canon, fp := combine.CanonicalProfile(p)
		if len(canon) == 0 || seen[fp] {
			continue
		}
		seen[fp] = true
		u := user{canon: canon}
		if len(canon) == profileCap {
			full = append(full, u)
		} else {
			some = append(some, u)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
	rng.Shuffle(len(some), func(i, j int) { some[i], some[j] = some[j], some[i] })
	// Full profiles first keep per-query work alike; smaller ones only
	// top the pool up at tiny scales.
	d.users = append(full, some...)
	return d, nil
}

// take removes and returns the next n users (fewer if the pool runs dry).
func (d *data) take(n int) []user {
	n = min(n, len(d.users))
	out := d.users[:n:n]
	d.users = d.users[n:]
	return out
}

// server is a handler behind a real loopback listener, with a keep-alive
// client sized for the drive.
type server struct {
	srv  *http.Server
	base string
	hc   *http.Client
	done chan struct{}
}

// startServer listens on a loopback port and serves h until close.
func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			DisableCompression:  true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout here leaves nothing we could retry
	s.hc.CloseIdleConnections()
	<-s.done
}

// ridHeader carries the benchmark's request id to the traced stack.
const ridHeader = "X-Request-Id"

// post sends one JSON request and reads the whole answer into buf.
func (s *server) post(path string, body []byte, rid string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set(ridHeader, rid)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// put stores a session profile over the wire.
func (s *server) put(id string, body []byte) error {
	req, err := http.NewRequest(http.MethodPut, s.base+"/v1/session/"+id+"/profile", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT session %s: status %d", id, resp.StatusCode)
	}
	return nil
}

// --- wire forms (the serving tier's JSON) ---

type resultRow struct {
	PID   int64   `json:"pid"`
	Score float64 `json:"score"`
}

type queryResponse struct {
	Outcome string      `json:"outcome"`
	Results []resultRow `json:"results"`
}

type mutateResponse struct {
	Applied     int  `json:"applied"`
	TouchedRows int  `json:"touched_rows"`
	FullRebuild bool `json:"full_rebuild"`
}

// sessionBody is a stored-session query.
func sessionBody(id string) []byte {
	return []byte(fmt.Sprintf(`{"session":%q,"k":%d}`, id, k))
}

// profileEntries is a profile's wire form.
func profileEntries(canon []hypre.ScoredPred) []serve.ProfileEntry {
	out := make([]serve.ProfileEntry, len(canon))
	for i, p := range canon {
		out[i] = serve.ProfileEntry{Pred: p.Pred, Intensity: p.Intensity}
	}
	return out
}

// inlineBody is a query carrying the profile itself.
func inlineBody(canon []hypre.ScoredPred) []byte {
	b, _ := json.Marshal(struct { // a slice of plain structs always marshals
		Profile []serve.ProfileEntry `json:"profile"`
		K       int                  `json:"k"`
	}{profileEntries(canon), k})
	return b
}

// profileBody is a PUT session body.
func profileBody(canon []hypre.ScoredPred) []byte {
	b, _ := json.Marshal(struct { // as in inlineBody
		Profile []serve.ProfileEntry `json:"profile"`
	}{profileEntries(canon)})
	return b
}

// mutateBody is one /v1/mutate batch.
func mutateBody(ops []workload.Op) ([]byte, error) {
	return json.Marshal(struct {
		Ops []workload.Op `json:"ops"`
	}{ops})
}

// sameAnswer reports whether served rows equal a reference ranking exactly.
func sameAnswer(got []resultRow, want []combine.ScoredTuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		if r.PID != want[i].PID || r.Score != want[i].Intensity {
			return false
		}
	}
	return true
}
