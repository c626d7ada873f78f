package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/campaign"
)

// span is one timed call across a layer boundary, recorded from outside the
// layer. Times are seconds since the pass's timed part began.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 = top level
	Name   string  `json:"name"`
	Lane   string  `json:"lane,omitempty"` // fleet worker that made the call; "" = coordinator side
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Run    string  `json:"run"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanHeader carries a client span's ID to the coordinator, so the
// handler's span names its caller explicitly.
const spanHeader = "X-Perfbench-Span"

// recorder keeps a traced pass's spans in memory until the pass ends. A nil
// *recorder is the untraced pass: nothing is wrapped and nothing recorded.
type recorder struct {
	run    string
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	getHits            atomic.Int64
	readBytes, wrBytes atomic.Int64
}

func newRecorder(run string) *recorder { return &recorder{run: run, origin: time.Now()} }

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

// add records a finished span under a fresh ID.
func (r *recorder) add(name, lane string, parent int64, start, end time.Time) {
	r.put(r.newID(), name, lane, parent, start, end)
}

func (r *recorder) put(id int64, name, lane string, parent int64, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Lane: lane, Run: r.run,
		Start: start.Sub(r.origin).Seconds(), End: end.Sub(r.origin).Seconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs f inside a top-level span.
func (r *recorder) timed(name string, f func()) {
	if r == nil {
		f()
		return
	}
	start := time.Now()
	f()
	r.add(name, "", 0, start, time.Now())
}

// finish returns the spans that overlap the timed part [0, wall], with the
// containment parents filled in: a campaign span belongs to the
// experiments span around it; store and worker spans, and client calls
// made outside a cell, to the campaign span around them; a worker's client
// call to the cell it was made for. Handler spans already name their
// client span through spanHeader.
func (r *recorder) finish(wall float64) []span {
	r.mu.Lock()
	all := append([]span(nil), r.spans...)
	r.mu.Unlock()
	kept := map[int64]bool{}
	for _, s := range all {
		kept[s.ID] = s.Start <= wall && s.End >= 0
	}
	var spans []span
	for _, s := range all {
		// A handler span goes with the client span it names.
		if kept[s.ID] && (s.Parent == 0 || kept[s.Parent]) {
			spans = append(spans, s)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	enclosing := func(s span, prefix, lane string) int64 {
		var best *span
		for i := range spans {
			c := &spans[i]
			if c.ID == s.ID || !strings.HasPrefix(c.Name, prefix) || c.Lane != lane {
				continue
			}
			if c.Start <= s.Start && c.End >= s.End && (best == nil || c.Start >= best.Start) {
				best = c
			}
		}
		if best == nil {
			return 0
		}
		return best.ID
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			continue
		}
		switch {
		case strings.HasPrefix(s.Name, "campaign."):
			s.Parent = enclosing(*s, "experiments.", "")
		case strings.HasPrefix(s.Name, "http.client."):
			if s.Parent = enclosing(*s, "worker.", s.Lane); s.Parent == 0 {
				s.Parent = enclosing(*s, "campaign.", "")
			}
		case strings.HasPrefix(s.Name, "store."), strings.HasPrefix(s.Name, "worker."):
			s.Parent = enclosing(*s, "campaign.", "")
		}
	}
	return spans
}

// tracedRunner times each batch handed to a campaign Runner (and Trainer).
type tracedRunner struct {
	inner interface {
		campaign.Runner
		campaign.Trainer
	}
	rec *recorder
}

func (t *tracedRunner) Run(ctx context.Context, jobs []*campaign.Job, onProgress func(campaign.Progress)) ([]*campaign.Outcome, error) {
	start := time.Now()
	outs, err := t.inner.Run(ctx, jobs, onProgress)
	t.rec.add("campaign.run", "", 0, start, time.Now())
	return outs, err
}

func (t *tracedRunner) Train(ctx context.Context, specs []*campaign.TrainSpec) ([]*campaign.Trained, error) {
	start := time.Now()
	out, err := t.inner.Train(ctx, specs)
	t.rec.add("campaign.train", "", 0, start, time.Now())
	return out, err
}

// tracedStore times every Get and Put on the ResultStore the runners share.
type tracedStore struct {
	inner campaign.ResultStore
	rec   *recorder
}

func (t *tracedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	data, ok := t.inner.Get(key)
	t.rec.add("store.get", "", 0, start, time.Now())
	if ok {
		t.rec.getHits.Add(1)
		t.rec.readBytes.Add(int64(len(data)))
	}
	return data, ok
}

func (t *tracedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := t.inner.Put(key, data)
	t.rec.add("store.put", "", 0, start, time.Now())
	t.rec.wrBytes.Add(int64(len(data)))
	return err
}

func (t *tracedStore) Len() int                           { return t.inner.Len() }
func (t *tracedStore) Stats() (hits, misses, puts uint64) { return t.inner.Stats() }

// Pin and Unpin keep the wrapped store a campaign.PinStore when the inner
// one is, so the work queue pins agent snapshots exactly as it would
// without the wrapper.
func (t *tracedStore) Pin(key string) {
	if ps, ok := t.inner.(campaign.PinStore); ok {
		ps.Pin(key)
	}
}

func (t *tracedStore) Unpin(key string) {
	if ps, ok := t.inner.(campaign.PinStore); ok {
		ps.Unpin(key)
	}
}

// httpOp names a work-protocol request by its endpoint.
func httpOp(path string) string {
	switch {
	case strings.HasSuffix(path, "/lease"):
		return "lease"
	case strings.HasSuffix(path, "/result"):
		return "result"
	}
	return "other"
}

// tracedTransport times one fleet worker's round trips to the coordinator,
// from the request until its response body is closed.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
	lane string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.newID()
	name := "http.client." + httpOp(req.URL.Path)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		t.rec.put(id, name, t.lane, 0, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.rec.put(id, name, t.lane, 0, start, time.Now()) }}
	return resp, nil
}

// spanBody ends its span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedHandler times the coordinator's handling of each request.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		rec.add("http.handler."+httpOp(req.URL.Path), "", parent, start, time.Now())
	})
}

// coverage returns the share of [0, wall] covered by the union of spans.
func coverage(spans []span, wall float64) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, 0), min(s.End, wall)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, 0.0
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	if wall <= 0 {
		return 0
	}
	return covered / wall
}

// checkSpans reports the spans that break the tree: a parent that was never
// recorded, or a child outside its parent's interval by more than tol. A
// handler span is held only to starting within its client span: the
// handler goroutine can be descheduled after writing the response, so it
// may end after the client has read it.
func checkSpans(spans []span, tol float64) []string {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var bad []string
	for _, s := range spans {
		if s.End < s.Start {
			bad = append(bad, s.Name+": ends before it starts")
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			bad = append(bad, s.Name+": parent span missing")
			continue
		}
		end := s.End
		if strings.HasPrefix(s.Name, "http.handler.") {
			end = s.Start
		}
		if s.Start < p.Start-tol || end > p.End+tol {
			bad = append(bad, s.Name+": outside its parent "+p.Name)
		}
	}
	return bad
}
