package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traceio"
)

// Coordinator shards one campaign over worker processes and merges the
// record streams back in deterministic order. See the package comment
// for the architecture and failure semantics.
type Coordinator struct {
	// Workers are the worker server addresses. Required.
	Workers []string
	// Spec describes the campaign: every worker rebuilds its
	// environment verbatim and runs its main campaign (Campaign.Slots
	// slots, Campaign.Oracle), which also sizes the merge.
	Spec *scenario.Spec
	// Shards is the number of terminal shards; 0 uses len(Workers).
	// Shard i starts on worker i mod len(Workers).
	Shards int
	// JournalDir holds one JSONL journal per shard
	// (shard-<id>.jsonl). Journals surviving from a previous run are
	// replayed: complete-slot records feed the merge without refetching,
	// and workers start past them. Required.
	JournalDir string
	// CallTimeout bounds every worker RPC — the death detector. 0 uses
	// 5s.
	CallTimeout time.Duration
	// MaxAttempts bounds how many times one shard may be (re)started
	// before the campaign fails. 0 uses 4.
	MaxAttempts int
	// Backoff is the first retry delay, doubling per attempt. 0 uses
	// 100ms.
	Backoff time.Duration
	// Registry, when non-nil, exposes per-shard queue-depth and lag
	// gauges (coord_shard_queue_depth, coord_shard_lag_slots).
	Registry *telemetry.Registry
	// Out, when non-nil, receives the merged record stream as JSONL —
	// byte-identical to a single-process run's traceio encoding.
	Out io.Writer

	// resMu guards the Result fields shard goroutines touch.
	resMu sync.Mutex
}

// Result summarizes a distributed campaign.
type Result struct {
	// Terminals and Shards describe the partition.
	Terminals, Shards int
	// Records/Served/Skips are recomputed from the merged stream, so
	// they describe exactly what went downstream.
	Records, Served int
	Skips           map[string]int
	// Attempted/Correct/Failed sum the per-shard identification
	// tallies reported by each shard's completing worker (whole-campaign
	// tallies even when the shard was replayed).
	Attempted, Correct, Failed int
	// Reassigned counts shard (re)starts beyond the first, Replayed the
	// records served from journals instead of workers.
	Reassigned, Replayed int
}

// shardState is the coordinator's view of one shard.
type shardState struct {
	id     int
	lo, hi int
	worker int // index into Coordinator.Workers

	client *dishrpc.Client
	// Journal: every fetched record is appended and fsynced before it
	// becomes visible to the merger — "acked" means durable.
	file        *os.File
	cw          *countingWriter
	enc         *traceio.Encoder[core.SlotRecord]
	boundaryOff int64 // byte offset at the last complete-slot boundary

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []core.SlotRecord // acked, not yet merged
	pushed int               // records acked since campaign start
	merged int               // slots merged downstream
	failed error
	stats  *core.CampaignStats

	depth, lag *telemetry.Gauge
}

func (s *shardState) width() int { return s.hi - s.lo }

// ackedSlots is the replay point: slots fully journaled and pushed.
func (s *shardState) ackedSlots() int { return s.pushed / s.width() }

// countingWriter tracks the journal's byte length so complete-slot
// boundaries map to truncation offsets, and forwards Sync so the
// traceio encoder's ack barrier reaches the file.
type countingWriter struct {
	f *os.File
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Sync() error { return w.f.Sync() }

// Run executes the campaign: shard goroutines drive the workers while
// this goroutine merges, journals having been replayed first. It
// returns when every (slot, terminal) record has been merged, or with
// the first terminal error.
func (c *Coordinator) Run(ctx context.Context) (*Result, error) {
	if len(c.Workers) == 0 {
		return nil, fmt.Errorf("coord: no workers")
	}
	if c.JournalDir == "" {
		return nil, fmt.Errorf("coord: journal dir required")
	}
	// The spec's placement gives the fleet size: an invalid spec fails
	// here, before any shard starts, and the coordinator never builds
	// the constellation itself.
	if c.Spec == nil {
		return nil, fmt.Errorf("coord: no scenario spec")
	}
	if err := c.Spec.Validate(); err != nil {
		return nil, err
	}
	vps, err := c.Spec.VantagePoints()
	if err != nil {
		return nil, err
	}
	nTerms := len(vps)
	if err := os.MkdirAll(c.JournalDir, 0o755); err != nil {
		return nil, fmt.Errorf("coord: journal dir: %w", err)
	}
	callTimeout := c.CallTimeout
	if callTimeout <= 0 {
		callTimeout = 5 * time.Second
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	nShards := c.Shards
	if nShards <= 0 {
		nShards = len(c.Workers)
	}

	if nShards > nTerms {
		nShards = nTerms
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := &Result{Terminals: nTerms, Shards: nShards, Skips: map[string]int{}}
	depthVec := c.Registry.GaugeVec("coord_shard_queue_depth",
		"records acked but not yet merged, per shard", "shard")
	lagVec := c.Registry.GaugeVec("coord_shard_lag_slots",
		"slots acked but not yet merged, per shard", "shard")

	shards := make([]*shardState, nShards)
	for i := range shards {
		s := &shardState{
			id: i,
			lo: i * nTerms / nShards, hi: (i + 1) * nTerms / nShards,
			worker: i % len(c.Workers),
			depth:  depthVec.With(fmt.Sprint(i)),
			lag:    lagVec.With(fmt.Sprint(i)),
		}
		s.cond = sync.NewCond(&s.mu)
		if err := c.openJournal(s, res); err != nil {
			return nil, err
		}
		defer s.file.Close()
		// cond.Wait cannot watch ctx; wake waiters on cancellation.
		go func() { <-ctx.Done(); s.cond.Broadcast() }()
		shards[i] = s
	}

	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			if err := c.runShard(ctx, s, callTimeout, maxAttempts, backoff, res); err != nil {
				s.fail(err)
			}
		}(s)
	}
	defer wg.Wait()
	defer cancel() // on a merge error, release shard goroutines first

	var enc *traceio.Encoder[core.SlotRecord]
	if c.Out != nil {
		enc = traceio.NewEncoder[core.SlotRecord](c.Out)
	}
	for slot := 0; slot < c.Spec.Campaign.Slots; slot++ {
		for _, s := range shards {
			recs, err := s.take(ctx, s.width())
			if err != nil {
				return nil, err
			}
			for i := range recs {
				if enc != nil {
					if err := enc.Encode(&recs[i]); err != nil {
						return nil, err
					}
				}
				res.Records++
				if recs[i].ChosenIdx >= 0 {
					res.Served++
				}
				if recs[i].SkipReason != "" {
					res.Skips[recs[i].SkipReason]++
				}
			}
		}
	}
	if enc != nil {
		if err := enc.Close(); err != nil {
			return nil, err
		}
	}
	wg.Wait()
	for _, s := range shards {
		if err := s.err(); err != nil {
			return nil, err
		}
		if s.stats != nil {
			res.Attempted += s.stats.Attempted
			res.Correct += s.stats.Correct
			res.Failed += s.stats.Failed
		}
	}
	return res, nil
}

// openJournal opens (creating if needed) a shard's journal and replays
// what a previous coordinator run acked: records up to the last
// complete slot feed the merge queue directly; anything past that
// boundary — a partial slot, or a line cut by a crash mid-append — is
// truncated away and refetched from a worker.
func (c *Coordinator) openJournal(s *shardState, res *Result) error {
	path := filepath.Join(c.JournalDir, fmt.Sprintf("shard-%d.jsonl", s.id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("coord: open journal: %w", err)
	}
	dec := traceio.NewDecoder[core.SlotRecord](f)
	dec.TolerateTruncatedTail()
	var recs []core.SlotRecord
	var boundary int64
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("coord: journal %s: %w", path, err)
		}
		recs = append(recs, rec)
		if len(recs)%s.width() == 0 {
			boundary = dec.Offset()
		}
	}
	acked := (len(recs) / s.width()) * s.width()
	if err := f.Truncate(boundary); err != nil {
		f.Close()
		return fmt.Errorf("coord: trim journal: %w", err)
	}
	if _, err := f.Seek(boundary, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("coord: seek journal: %w", err)
	}
	s.file = f
	s.cw = &countingWriter{f: f, n: boundary}
	s.enc = traceio.NewEncoder[core.SlotRecord](s.cw)
	s.boundaryOff = boundary
	s.queue = recs[:acked]
	s.pushed = acked
	s.depth.Set(int64(acked))
	s.lag.Set(int64(s.ackedSlots()))
	res.Replayed += acked
	return nil
}

// take blocks until n acked records are available and pops them — the
// merger's per-(slot, shard) read.
func (s *shardState) take(ctx context.Context, n int) ([]core.SlotRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) < n && s.failed == nil && ctx.Err() == nil {
		s.cond.Wait()
	}
	if s.failed != nil {
		return nil, s.failed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	recs := s.queue[:n:n]
	s.queue = s.queue[n:]
	s.merged++
	s.depth.Set(int64(len(s.queue)))
	s.lag.Set(int64(s.pushed/s.width() - s.merged))
	return recs, nil
}

func (s *shardState) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *shardState) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// runShard drives one shard to completion: start it on its worker,
// fetch-journal-push until done, and on any transport failure retry
// with exponential backoff — Redial first, then reassign to a
// ping-responsive survivor — replaying from the journal's last
// complete slot.
func (c *Coordinator) runShard(ctx context.Context, s *shardState,
	callTimeout time.Duration, maxAttempts int, backoff time.Duration, res *Result) error {
	defer func() {
		if s.client != nil {
			s.client.Close()
		}
	}()
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			// Exponential backoff before touching the fleet again.
			d := backoff << (attempt - 1)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
			s.trimToBoundary()
			s.worker = c.pickWorker(s.worker, callTimeout)
			c.noteReassign(res)
		}
		err := c.driveShard(ctx, s, callTimeout)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("coord: shard %d failed after %d attempts: %w", s.id, maxAttempts, lastErr)
}

func (c *Coordinator) noteReassign(res *Result) {
	c.resMu.Lock()
	res.Reassigned++
	c.resMu.Unlock()
}

// driveShard runs one attempt: connect (Redial if poisoned), start the
// worker past the acked slots, then fetch, journal, ack, and push
// until the worker reports done.
func (c *Coordinator) driveShard(ctx context.Context, s *shardState, callTimeout time.Duration) error {
	addr := c.Workers[s.worker]
	switch {
	case s.client == nil:
		client, err := dishrpc.Dial(addr)
		if err != nil {
			return err
		}
		client.SetCallTimeout(callTimeout)
		s.client = client
	case s.client.Addr() != addr:
		s.client.Close()
		client, err := dishrpc.Dial(addr)
		if err != nil {
			return err
		}
		client.SetCallTimeout(callTimeout)
		s.client = client
	case s.client.Err() != nil:
		// Same worker, poisoned stream: a fresh connection, same client.
		if err := s.client.Redial(); err != nil {
			return err
		}
	}

	start := startParams{Shard: s.id, Lo: s.lo, Hi: s.hi, From: s.ackedSlots(), Spec: c.Spec}
	if err := s.client.Call("coord_start", start, nil); err != nil {
		return err
	}
	want := s.width() * c.Spec.Campaign.Slots
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var fr fetchResult
		if err := s.client.Call("coord_fetch", fetchParams{Shard: s.id}, &fr); err != nil {
			return err
		}
		if len(fr.Records) > 0 {
			recs := make([]core.SlotRecord, len(fr.Records))
			for i, raw := range fr.Records {
				if err := json.Unmarshal(raw, &recs[i]); err != nil {
					return fmt.Errorf("coord: shard %d: bad record: %w", s.id, err)
				}
			}
			if err := s.ack(recs); err != nil {
				return err
			}
		}
		if fr.Done {
			if fr.Error != "" {
				return fmt.Errorf("coord: shard %d worker campaign: %s", s.id, fr.Error)
			}
			if got := s.acked(); got != want {
				return fmt.Errorf("coord: shard %d: worker done with %d/%d records", s.id, got, want)
			}
			s.mu.Lock()
			s.stats = fr.Stats
			s.mu.Unlock()
			return nil
		}
	}
}

// ack journals a fetched batch — flushing at every complete-slot
// boundary so the truncation offset tracks the ack point — then syncs
// (the durability barrier) and only then exposes the records to the
// merger.
func (s *shardState) ack(recs []core.SlotRecord) error {
	// The new boundary is committed only after Sync succeeds: a failed
	// batch leaves boundaryOff at the previous ack point, and the next
	// trimToBoundary cuts the partial bytes away.
	boundary := s.boundaryOff
	for i := range recs {
		if err := s.enc.Encode(&recs[i]); err != nil {
			return err
		}
		if (s.pushed+i+1)%s.width() == 0 {
			if err := s.enc.Flush(); err != nil {
				return err
			}
			boundary = s.cw.n
		}
	}
	if err := s.enc.Sync(); err != nil {
		return err
	}
	s.boundaryOff = boundary
	s.mu.Lock()
	s.queue = append(s.queue, recs...)
	s.pushed += len(recs)
	s.depth.Set(int64(len(s.queue)))
	s.lag.Set(int64(s.pushed/s.width() - s.merged))
	s.mu.Unlock()
	s.cond.Broadcast()
	return nil
}

func (s *shardState) acked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushed
}

// trimToBoundary drops the partial slot at the journal's tail — both
// the queued records the merger has not consumed (it only ever takes
// whole slots, so they are still there) and the journal bytes past the
// last complete-slot boundary. The replacement worker re-emits from
// the boundary slot.
func (s *shardState) trimToBoundary() {
	s.mu.Lock()
	excess := s.pushed % s.width()
	if excess > 0 {
		s.queue = s.queue[:len(s.queue)-excess]
		s.pushed -= excess
		s.depth.Set(int64(len(s.queue)))
	}
	s.mu.Unlock()
	if s.cw.n != s.boundaryOff || excess > 0 {
		s.file.Truncate(s.boundaryOff)
		s.file.Seek(s.boundaryOff, io.SeekStart)
		s.cw.n = s.boundaryOff
		s.enc = traceio.NewEncoder[core.SlotRecord](s.cw)
	}
}

// pickWorker returns the next worker, preferring one that answers a
// ping: reassignment should land on a live survivor, falling back to
// the original address (the worker may simply have restarted).
func (c *Coordinator) pickWorker(current int, callTimeout time.Duration) int {
	for i := 1; i <= len(c.Workers); i++ {
		cand := (current + i) % len(c.Workers)
		if c.ping(c.Workers[cand], callTimeout) {
			return cand
		}
	}
	return current
}

func (c *Coordinator) ping(addr string, callTimeout time.Duration) bool {
	client, err := dishrpc.Dial(addr)
	if err != nil {
		return false
	}
	defer client.Close()
	client.SetCallTimeout(callTimeout)
	return client.Call("coord_ping", nil, nil) == nil
}
