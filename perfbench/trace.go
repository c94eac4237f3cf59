package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/store"
	"seccloud/internal/wire"
)

// span is one traced interval at a layer boundary. Spans of one workload
// operation share Op; Parent is the span that caused this one (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names. Roots are the workload operations; the rest sit at the
// public boundaries the operations cross.
const (
	spanAuditStorage = "core.agency.audit_storage"
	spanAuditJob     = "core.agency.audit_job"
	spanAccept       = "core.agency.accept_delegation"
	spanSubmit       = "core.user.submit_job"
	spanIngest       = "op.ingest"
	spanPrepare      = "core.user.prepare"
	spanStore        = "core.user.store"
	spanRoundTrip    = "daemon.client.round_trip"
	spanServerPrefix = "core.server."
	spanWrite        = "store.write"
	spanFsync        = "store.fsync"
	spanSyncDir      = "store.sync_dir"
	spanSnapshot     = "store.snapshot"
)

// tracer keeps spans in memory while on is set. The workload loop runs one
// operation at a time, so the current op and its root span are globals
// the wrappers read; concurrent round trips of one op are told apart by
// the in-flight list.
type tracer struct {
	t0   time.Time
	on   atomic.Bool
	next atomic.Int64
	op   atomic.Int64 // current op id
	cur  atomic.Int64 // innermost open client-side span of the op
	srv  atomic.Int64 // server span in progress (parent of disk spans)

	mu       sync.Mutex
	spans    []span
	inflight []flight // client round trips awaiting their server span
	snapOpen int64    // start of the snapshot in progress, -1 if none

	fsyncs     atomic.Int64
	diskBytes  atomic.Int64
	rtFailures atomic.Int64
}

type flight struct {
	id      int64
	kind    string
	claimed bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), snapOpen: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp opens the root span of operation op; the returned func closes it.
func (t *tracer) beginOp(op int64, name string) func() {
	id := t.newID()
	t.op.Store(op)
	t.cur.Store(id)
	start := t.now()
	return func() {
		t.add(span{ID: id, Op: op, Name: name, Start: start, End: t.now()})
		t.cur.Store(0)
	}
}

// child records fn as a span under the innermost open span; spans fn opens
// nest under it.
func (t *tracer) child(name string, fn func() error) error {
	id, parent := t.newID(), t.cur.Load()
	t.cur.Store(id)
	start := t.now()
	err := fn()
	t.add(span{ID: id, Parent: parent, Op: t.op.Load(), Name: name, Start: start, End: t.now()})
	t.cur.Store(parent)
	return err
}

// claim finds the oldest unclaimed in-flight round trip of kind: the
// parent of the server span handling it.
func (t *tracer) claim(kind string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.inflight {
		if !t.inflight[i].claimed && t.inflight[i].kind == kind {
			t.inflight[i].claimed = true
			return t.inflight[i].id
		}
	}
	return t.cur.Load()
}

func (t *tracer) launch(id int64, kind string) {
	t.mu.Lock()
	t.inflight = append(t.inflight, flight{id: id, kind: kind})
	t.mu.Unlock()
}

func (t *tracer) land(id int64) {
	t.mu.Lock()
	for i := range t.inflight {
		if t.inflight[i].id == id {
			t.inflight = append(t.inflight[:i], t.inflight[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// writeJSONL writes the header line and every span to path.
func (t *tracer) writeJSONL(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedClient sits between the core roles and the daemon client. It always
// times round trips by request kind (the storage-audit rpc metric) and,
// while the tracer is on, records each as a span.
type timedClient struct {
	netsim.Client
	tr *tracer

	cycle atomic.Int64 // the bench cycle the round trips belong to

	mu  sync.Mutex
	rts map[string][]sample
}

func newTimedClient(c netsim.Client, tr *tracer) *timedClient {
	return &timedClient{Client: c, tr: tr, rts: make(map[string][]sample)}
}

func (c *timedClient) RoundTrip(m wire.Message) (wire.Message, error) {
	return c.RoundTripContext(context.Background(), m)
}

func (c *timedClient) RoundTripContext(ctx context.Context, m wire.Message) (wire.Message, error) {
	kind := m.Kind()
	if c.tr == nil || !c.tr.on.Load() {
		start := time.Now()
		resp, err := c.Client.RoundTripContext(ctx, m)
		c.record(kind, time.Since(start))
		return resp, err
	}
	id, parent, op := c.tr.newID(), c.tr.cur.Load(), c.tr.op.Load()
	c.tr.launch(id, kind)
	start, wall := c.tr.now(), time.Now()
	resp, err := c.Client.RoundTripContext(ctx, m)
	end := c.tr.now()
	c.record(kind, time.Since(wall))
	c.tr.land(id)
	if err != nil {
		c.tr.rtFailures.Add(1)
	}
	c.tr.add(span{ID: id, Parent: parent, Op: op, Name: spanRoundTrip, Start: start, End: end})
	return resp, err
}

func (c *timedClient) record(kind string, d time.Duration) {
	s := sample{d: d, cycle: int(c.cycle.Load())}
	c.mu.Lock()
	c.rts[kind] = append(c.rts[kind], s)
	c.mu.Unlock()
}

// take returns the round trips of kind recorded since the last reset.
func (c *timedClient) take(kind string) []sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]sample(nil), c.rts[kind]...)
}

// reset drops every recorded round trip.
func (c *timedClient) reset() {
	c.mu.Lock()
	c.rts = make(map[string][]sample)
	c.mu.Unlock()
}

// serverLayer names the core.server span for a request kind.
func serverLayer(kind string) string {
	switch kind {
	case "staudit_req":
		return "storage_audit"
	case "challenge_req":
		return "challenge"
	case "compute_req":
		return "compute"
	case "store_req":
		return "store"
	}
	return strings.TrimSuffix(kind, "_req")
}

// tracedHandler is a netsim.Handler decorator in front of core.Server.
type tracedHandler struct {
	h  netsim.Handler
	tr *tracer
}

func (t tracedHandler) Handle(m wire.Message) wire.Message {
	if !t.tr.on.Load() {
		return t.h.Handle(m)
	}
	kind := m.Kind()
	id, parent, op := t.tr.newID(), t.tr.claim(kind), t.tr.op.Load()
	t.tr.srv.Store(id)
	start := t.tr.now()
	resp := t.h.Handle(m)
	t.tr.add(span{ID: id, Parent: parent, Op: op, Name: spanServerPrefix + serverLayer(kind), Start: start, End: t.tr.now()})
	t.tr.srv.Store(0)
	return resp
}

// tracedFS counts and times every disk write, fsync and snapshot the WAL
// makes. A snapshot span runs from opening the snapshot temp file to the
// directory sync that publishes it.
type tracedFS struct {
	store.FS
	tr *tracer
}

func (f tracedFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	if f.tr.on.Load() && strings.HasSuffix(path, ".snap.tmp") {
		f.tr.mu.Lock()
		f.tr.snapOpen = f.tr.now()
		f.tr.mu.Unlock()
	}
	return tracedFile{File: file, tr: f.tr}, nil
}

func (f tracedFS) SyncDir(path string) error {
	if !f.tr.on.Load() {
		return f.FS.SyncDir(path)
	}
	start := f.tr.now()
	err := f.FS.SyncDir(path)
	end := f.tr.now()
	f.tr.fsyncs.Add(1)
	parent, op := f.tr.srv.Load(), f.tr.op.Load()
	f.tr.add(span{ID: f.tr.newID(), Parent: parent, Op: op, Name: spanSyncDir, Start: start, End: end})
	f.tr.mu.Lock()
	snapStart := f.tr.snapOpen
	f.tr.snapOpen = -1
	f.tr.mu.Unlock()
	if snapStart >= 0 {
		f.tr.add(span{ID: f.tr.newID(), Parent: parent, Op: op, Name: spanSnapshot, Start: snapStart, End: end})
	}
	return err
}

type tracedFile struct {
	store.File
	tr *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	if !f.tr.on.Load() {
		return f.File.Write(p)
	}
	start := f.tr.now()
	n, err := f.File.Write(p)
	f.tr.diskBytes.Add(int64(n))
	f.tr.add(span{ID: f.tr.newID(), Parent: f.tr.srv.Load(), Op: f.tr.op.Load(), Name: spanWrite, Start: start, End: f.tr.now(), Bytes: int64(n)})
	return n, err
}

func (f tracedFile) Sync() error {
	if !f.tr.on.Load() {
		return f.File.Sync()
	}
	start := f.tr.now()
	err := f.File.Sync()
	f.tr.fsyncs.Add(1)
	f.tr.add(span{ID: f.tr.newID(), Parent: f.tr.srv.Load(), Op: f.tr.op.Load(), Name: spanFsync, Start: start, End: f.tr.now()})
	return err
}

// children indexes spans by parent.
func children(spans []span) map[int64][]span {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span, kids map[int64][]span) map[int64]time.Duration {
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of children's intervals, clipped to
// the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64 = 0, -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
