// Package coord shards a measurement campaign across worker processes
// and merges the results back into the exact byte stream a
// single-process run would produce.
//
// The design leans on one property of the ground-truth scheduler: it
// is deterministic from its scenario spec but stateful across slots, so it
// cannot be split — every worker runs the FULL scheduler from slot 0
// and computes records only for its contiguous terminal shard
// (core.CampaignConfig.Shard). The coordinator fetches each shard's
// records over the dishrpc framed transport, journals them to
// per-shard JSONL files (traceio, Sync = ack), and merges slot by slot
// in shard order — which reproduces the serial (slot, terminal)
// sequence byte for byte.
//
// Failure semantics: a worker death surfaces as a timed-out or broken
// call; the client connection is poisoned (dishrpc.ErrPoisoned), the
// shard's journal is trimmed to its last complete-slot boundary, and
// the shard is reassigned — bounded retries with exponential backoff,
// Redial on the same worker or a ping-selected survivor — with the
// replacement worker replaying from slot 0 but emitting only from the
// first unacked slot (core.CampaignConfig.EmitFromSlot). Records
// before the ack point come out of the journal, so the merged stream
// carries no duplicated or missing (slot, terminal) cells.
package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/scenario"
)

// Protocol messages. The transport is the dishrpc length-prefixed
// framing; methods are dispatched by name through a Handler server.
type startParams struct {
	Shard int            `json:"shard"`
	Lo    int            `json:"lo"`
	Hi    int            `json:"hi"`
	From  int            `json:"from"` // EmitFromSlot: first unacked slot
	Spec  *scenario.Spec `json:"spec"`
}

type fetchParams struct {
	Shard int `json:"shard"`
}

// fetchBudget bounds the encoded records one fetch hands out. The
// rest of a response frame, its JSON envelope and the commas between
// records, fits in the 1 KiB left over, so a fetch never builds a frame
// over dishrpc.MaxFrame unless a single record is that large.
const fetchBudget = dishrpc.MaxFrame - 1<<10

type fetchResult struct {
	// Records are JSON-encoded core.SlotRecords in production order:
	// as many as fit in fetchBudget bytes, and at least one.
	Records []json.RawMessage `json:"records,omitempty"`
	// Done means the campaign finished and every record has been
	// handed out; Stats carries the worker's whole-campaign summary.
	Done  bool                `json:"done,omitempty"`
	Error string              `json:"error,omitempty"`
	Stats *core.CampaignStats `json:"stats,omitempty"`
}

// Worker executes shard campaigns on behalf of a coordinator. One
// worker can hold several shards at once — after a peer dies, its
// shards land on the survivors.
type Worker struct {
	// RecordDelay throttles record production (test and fault-injection
	// hook: a campaign slow enough to kill a worker in the middle of).
	RecordDelay time.Duration

	mu     sync.Mutex
	shards map[int]*shardRun
}

// shardRun is one in-flight shard campaign on a worker.
type shardRun struct {
	cancel context.CancelFunc

	mu    sync.Mutex
	queue []json.RawMessage // encoded once, when produced
	done  bool
	err   string
	stats *core.CampaignStats
}

func (r *shardRun) push(rec *core.SlotRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.queue = append(r.queue, raw)
	r.mu.Unlock()
	return nil
}

func (r *shardRun) finish(stats *core.CampaignStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = true
	r.stats = stats
	if err != nil {
		r.err = err.Error()
	}
}

// Handle is the worker's dishrpc method table.
func (w *Worker) Handle(method string, params json.RawMessage) (any, error) {
	switch method {
	case "coord_ping":
		return "ok", nil
	case "coord_start":
		var p startParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad start params: %v", err)
		}
		return "ok", w.start(p)
	case "coord_fetch":
		var p fetchParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("bad fetch params: %v", err)
		}
		return w.fetch(p), nil
	default:
		return nil, dishrpc.UnknownMethod(method)
	}
}

// start launches (or relaunches) a shard campaign. A relaunch cancels
// the previous run of the same shard id: the coordinator only
// restarts a shard it has given up on, and stale records must not mix
// with the replay.
func (w *Worker) start(p startParams) error {
	if p.Spec == nil {
		return fmt.Errorf("coord: start without a scenario spec")
	}
	// Every start builds afresh: the scheduler is stateful, and a
	// reassigned shard restarts it from slot 0.
	built, err := p.Spec.Build(scenario.BuildOptions{})
	if err != nil {
		return err
	}
	cfg := built.CampaignConfig()
	cfg.Shard = core.ShardRange{Lo: p.Lo, Hi: p.Hi}
	cfg.EmitFromSlot = p.From

	ctx, cancel := context.WithCancel(context.Background())
	run := &shardRun{cancel: cancel}

	w.mu.Lock()
	if w.shards == nil {
		w.shards = make(map[int]*shardRun)
	}
	if old := w.shards[p.Shard]; old != nil {
		old.cancel()
	}
	w.shards[p.Shard] = run
	w.mu.Unlock()

	go func() {
		defer cancel()
		stats, err := core.RunCampaignStream(ctx, cfg, func(rec core.SlotRecord) error {
			if w.RecordDelay > 0 {
				time.Sleep(w.RecordDelay)
			}
			return run.push(&rec)
		})
		run.finish(stats, err)
	}()
	return nil
}

// fetch hands out the queued records that fit in fetchBudget, at least
// one, waiting briefly when the queue is empty so the coordinator's
// poll loop is not a hot spin. Done is only reported once the campaign
// has finished AND the queue has drained, so Done implies "no record
// left behind".
func (w *Worker) fetch(p fetchParams) fetchResult {
	w.mu.Lock()
	run := w.shards[p.Shard]
	w.mu.Unlock()
	if run == nil {
		return fetchResult{Error: fmt.Sprintf("shard %d not started", p.Shard)}
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		run.mu.Lock()
		if len(run.queue) > 0 {
			n, size := 1, len(run.queue[0])
			for n < len(run.queue) && size+1+len(run.queue[n]) <= fetchBudget {
				size += 1 + len(run.queue[n])
				n++
			}
			recs := run.queue[:n:n]
			run.queue = run.queue[n:]
			run.mu.Unlock()
			return fetchResult{Records: recs}
		}
		if run.done {
			res := fetchResult{Done: true, Error: run.err, Stats: run.stats}
			run.mu.Unlock()
			return res
		}
		run.mu.Unlock()
		if !time.Now().Before(deadline) {
			return fetchResult{} // empty poll: campaign still producing
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// NewWorkerServer serves w's shard protocol on addr over the dishrpc
// framing. Run it with Serve; a coordinator connects with Dial.
func NewWorkerServer(addr string, w *Worker) (*dishrpc.Server, error) {
	return dishrpc.NewHandlerServer(addr, w.Handle)
}
