package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traceio"
)

// testSpec is small and oracle-mode so a full campaign runs in
// milliseconds per worker while still exercising every layer.
func testSpec(slots int) *scenario.Spec {
	scn, err := scenario.Starlink("small", 41)
	if err != nil {
		panic(err)
	}
	scn.Campaign.Slots = slots
	scn.Campaign.Oracle = true
	return scn
}

// serialBytes runs the spec single-process and returns the traceio
// JSONL encoding — the golden stream every distributed run must match
// byte for byte.
func serialBytes(t *testing.T, spec *scenario.Spec) []byte {
	t.Helper()
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := traceio.NewEncoder[core.SlotRecord](&buf)
	if _, err := core.RunCampaignStream(context.Background(), built.CampaignConfig(), func(rec core.SlotRecord) error {
		return enc.Encode(&rec)
	}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startWorker serves one in-process worker and returns its server (for
// address and for killing it mid-campaign).
func startWorker(t *testing.T, delay time.Duration) *dishrpc.Server {
	t.Helper()
	srv, err := NewWorkerServer("127.0.0.1:0", &Worker{RecordDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background())
	t.Cleanup(func() { srv.Close() })
	return srv
}

func addrs(servers []*dishrpc.Server) []string {
	out := make([]string, len(servers))
	for i, s := range servers {
		out[i] = s.Addr().String()
	}
	return out
}

// TestCoordinatorMatchesSerial: distributed runs at several
// shard/worker shapes produce the byte-identical merged stream, and
// the per-shard gauges land on the metrics registry.
func TestCoordinatorMatchesSerial(t *testing.T) {
	spec := testSpec(6)
	golden := serialBytes(t, spec)
	for _, tc := range []struct{ workers, shards int }{
		{1, 1}, {2, 2}, {3, 3}, {2, 3},
	} {
		servers := make([]*dishrpc.Server, tc.workers)
		for i := range servers {
			servers[i] = startWorker(t, 0)
		}
		reg := telemetry.NewRegistry()
		var out bytes.Buffer
		c := &Coordinator{
			Workers:    addrs(servers),
			Spec:       spec,
			Shards:     tc.shards,
			JournalDir: t.TempDir(),
			Registry:   reg,
			Out:        &out,
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", tc.workers, tc.shards, err)
		}
		if !bytes.Equal(out.Bytes(), golden) {
			t.Fatalf("workers=%d shards=%d: merged stream differs from serial (%d vs %d bytes)",
				tc.workers, tc.shards, out.Len(), len(golden))
		}
		if res.Records != res.Terminals*spec.Campaign.Slots {
			t.Errorf("records = %d, want %d", res.Records, res.Terminals*spec.Campaign.Slots)
		}
		if res.Reassigned != 0 {
			t.Errorf("healthy run reassigned %d shards", res.Reassigned)
		}
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`coord_shard_queue_depth{shard="0"}`,
			`coord_shard_lag_slots{shard="0"}`,
		} {
			if !strings.Contains(prom.String(), want) {
				t.Errorf("workers=%d shards=%d: /metrics missing %s", tc.workers, tc.shards, want)
			}
		}
	}
}

// TestCoordinatorWorkerDeath is the tentpole acceptance test: a
// 3-worker campaign with one worker killed mid-run must produce
// byte-identical output to the serial single-process run, with the
// dead worker's shard replayed from the journal onto a survivor — no
// duplicated or missing (slot, terminal) records.
func TestCoordinatorWorkerDeath(t *testing.T) {
	// The throttle × slot count must keep every shard's campaign running
	// well past the 60 ms kill below — the snapshot engine is fast
	// enough that an unthrottled run finishes first.
	spec := testSpec(30)
	golden := serialBytes(t, spec)

	servers := make([]*dishrpc.Server, 3)
	for i := range servers {
		servers[i] = startWorker(t, 5*time.Millisecond)
	}
	journals := t.TempDir()
	var out bytes.Buffer
	c := &Coordinator{
		Workers:     addrs(servers),
		Spec:        spec,
		Shards:      3,
		JournalDir:  journals,
		CallTimeout: 2 * time.Second,
		Backoff:     20 * time.Millisecond,
		Out:         &out,
	}

	// SIGKILL stand-in: closing the server tears down its listener and
	// every open connection, exactly what the coordinator sees when the
	// process dies.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(60 * time.Millisecond)
		servers[1].Close()
	}()

	res, err := c.Run(context.Background())
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("merged stream differs from serial after worker death (%d vs %d bytes)", out.Len(), len(golden))
	}
	if res.Reassigned == 0 {
		t.Error("worker death did not trigger a reassignment (kill landed too late?)")
	}

	// Every shard journal must strictly decode to exactly its share of
	// the serial stream — the no-dup/no-gap proof at the durable layer.
	goldenRecs := decodeAll(t, bytes.NewReader(golden))
	nTerms := res.Terminals
	for s := 0; s < res.Shards; s++ {
		lo, hi := s*nTerms/res.Shards, (s+1)*nTerms/res.Shards
		f, err := os.Open(filepath.Join(journals, "shard-"+string(rune('0'+s))+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		got := decodeAll(t, f)
		f.Close()
		var want []core.SlotRecord
		for slot := 0; slot < spec.Campaign.Slots; slot++ {
			want = append(want, goldenRecs[slot*nTerms+lo:slot*nTerms+hi]...)
		}
		if len(got) != len(want) {
			t.Fatalf("shard %d journal has %d records, want %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i].Terminal != want[i].Terminal || !got[i].SlotStart.Equal(want[i].SlotStart) ||
				got[i].TrueID != want[i].TrueID {
				t.Fatalf("shard %d journal record %d: (%s, %v, %d) want (%s, %v, %d)",
					s, i, got[i].Terminal, got[i].SlotStart, got[i].TrueID,
					want[i].Terminal, want[i].SlotStart, want[i].TrueID)
			}
		}
	}
}

func decodeAll(t *testing.T, r io.Reader) []core.SlotRecord {
	t.Helper()
	dec := traceio.NewDecoder[core.SlotRecord](r)
	var out []core.SlotRecord
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// TestCoordinatorResumeFromJournal: rerunning a completed campaign
// against the same journal dir serves every record from the journals
// (workers re-run the scheduler but emit nothing) and still produces
// the byte-identical stream — the coordinator-crash recovery path.
func TestCoordinatorResumeFromJournal(t *testing.T) {
	spec := testSpec(5)
	golden := serialBytes(t, spec)
	servers := []*dishrpc.Server{startWorker(t, 0), startWorker(t, 0)}
	journals := t.TempDir()
	run := func() (*Result, []byte) {
		var out bytes.Buffer
		c := &Coordinator{
			Workers: addrs(servers), Spec: spec, Shards: 2,
			JournalDir: journals, Out: &out,
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, out.Bytes()
	}
	res1, out1 := run()
	if res1.Replayed != 0 {
		t.Fatalf("fresh run replayed %d records", res1.Replayed)
	}
	if !bytes.Equal(out1, golden) {
		t.Fatal("fresh run diverged from serial")
	}

	// Corrupt one journal's tail the way a crash mid-append would:
	// chop bytes off the final line. The resume must drop the partial
	// slot, refetch it, and still match.
	path := filepath.Join(journals, "shard-0.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	res2, out2 := run()
	if res2.Replayed == 0 {
		t.Fatal("resume run replayed nothing from the journals")
	}
	if res2.Replayed >= res2.Records {
		t.Fatalf("resume replayed %d of %d records; the truncated slot should have been refetched",
			res2.Replayed, res2.Records)
	}
	if !bytes.Equal(out2, golden) {
		t.Fatal("journal-resumed run diverged from serial")
	}
}

// TestCoordinatorAllWorkersDead: with no reachable worker the run
// fails with a bounded, decorated error instead of hanging.
func TestCoordinatorAllWorkersDead(t *testing.T) {
	srv := startWorker(t, 0)
	addr := srv.Addr().String()
	srv.Close()
	c := &Coordinator{
		Workers: []string{addr}, Spec: testSpec(2),
		JournalDir: t.TempDir(), CallTimeout: 200 * time.Millisecond,
		MaxAttempts: 2, Backoff: 10 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run succeeded with every worker dead")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run hung with every worker dead")
	}
}

// TestCoordinatorScenarioSpec: the coordinator runs a non-Starlink
// scenario — workers rebuild a Walker-star constellation and
// grid-placed terminals from the spec the coordinator ships, not from
// the baked-in Starlink shells — and the distributed merge is
// byte-identical to the serial scenario run.
func TestCoordinatorScenarioSpec(t *testing.T) {
	scn := &scenario.Spec{
		Version: scenario.SpecVersion,
		Name:    "coord-star",
		Seed:    5,
		Constellation: scenario.ConstellationSpec{
			NamePrefix: "STAR",
			Shells: []scenario.ShellSpec{
				{Name: "cs", Geometry: "walker-star", AltitudeKm: 1200, InclinationDeg: 86.4,
					Planes: 10, SatsPerPlane: 12, PhasingF: 1},
			},
		},
		Terminals: scenario.TerminalsSpec{
			Grids: []scenario.GridSpec{
				{Prefix: "g", Region: scenario.RegionSpec{LatMinDeg: 35, LatMaxDeg: 48, LonMinDeg: -100, LonMaxDeg: -80},
					Rows: 2, Cols: 2},
			},
		},
		Scheduler: scenario.SchedulerSpec{DisableGroundStations: true},
		Campaign:  scenario.CampaignSpec{Slots: 6, Oracle: true},
	}
	if err := scn.Validate(); err != nil {
		t.Fatal(err)
	}
	golden := serialBytes(t, scn)
	if len(golden) == 0 {
		t.Fatal("empty golden scenario stream")
	}
	// The stream must really be the scenario's placement, and the
	// builder must really produce the Walker-star fleet.
	if !bytes.Contains(golden, []byte(`"g-0"`)) || !bytes.Contains(golden, []byte(`"g-3"`)) {
		t.Fatal("scenario stream does not carry the grid-placed terminals")
	}
	built, err := scn.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if built.Env.Cons.Len() != 120 || built.Env.Cons.Sats[0].Name != "STAR-1000" {
		t.Fatalf("scenario built %d sats, first %q; want 120 STAR-prefixed",
			built.Env.Cons.Len(), built.Env.Cons.Sats[0].Name)
	}

	servers := []*dishrpc.Server{startWorker(t, 0), startWorker(t, 0)}
	var out bytes.Buffer
	c := &Coordinator{
		Workers:    addrs(servers),
		Spec:       scn,
		Shards:     2,
		JournalDir: t.TempDir(),
		Out:        &out,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminals != 4 {
		t.Fatalf("workers saw %d terminals, want the 4 grid-placed ones", res.Terminals)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("distributed scenario stream differs from serial (%d vs %d bytes)", out.Len(), len(golden))
	}
}

// TestCoordinatorRejectsInvalidSpec: a spec without a scenario, or one
// that fails validation, errors before any shard starts — no worker
// receives a shard and no journal directory is created.
func TestCoordinatorRejectsInvalidSpec(t *testing.T) {
	bad := testSpec(2)
	bad.Version = 0
	for name, spec := range map[string]*scenario.Spec{
		"no scenario": nil,
		"invalid":     bad,
	} {
		w := &Worker{}
		srv, err := NewWorkerServer("127.0.0.1:0", w)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(context.Background())
		journal := filepath.Join(t.TempDir(), "journal")
		c := &Coordinator{Workers: []string{srv.Addr().String()}, Spec: spec, JournalDir: journal}
		if _, err := c.Run(context.Background()); err == nil {
			t.Errorf("%s: run accepted the spec", name)
		}
		srv.Close()
		w.mu.Lock()
		started := len(w.shards)
		w.mu.Unlock()
		if started != 0 {
			t.Errorf("%s: %d shards started", name, started)
		}
		if _, err := os.Stat(journal); !os.IsNotExist(err) {
			t.Errorf("%s: journal dir created (stat err %v)", name, err)
		}
	}
}

// TestFetchStaysWithinFrame: a finished shard whose queue holds more
// than 128 large records (a full-density constellation at a 15° mask,
// about 14 KB a record) is handed out in fetches whose response frames
// all fit in dishrpc.MaxFrame, and the fetched records are the serial
// stream.
func TestFetchStaysWithinFrame(t *testing.T) {
	scn, err := scenario.Starlink("full", 7)
	if err != nil {
		t.Fatal(err)
	}
	scn.Scheduler.MinElevationDeg = 15
	if err := scn.Validate(); err != nil {
		t.Fatal(err)
	}
	scn.Campaign.Slots = 40
	golden := serialBytes(t, scn)

	w := &Worker{}
	start, err := json.Marshal(startParams{Shard: 0, Lo: 0, Hi: 4, Spec: scn})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Handle("coord_start", start); err != nil {
		t.Fatal(err)
	}
	for finished := false; !finished; time.Sleep(10 * time.Millisecond) {
		w.mu.Lock()
		run := w.shards[0]
		w.mu.Unlock()
		run.mu.Lock()
		finished = run.done
		run.mu.Unlock()
	}

	var out bytes.Buffer
	enc := traceio.NewEncoder[core.SlotRecord](&out)
	fetches, records := 0, 0
	for {
		res, err := w.Handle("coord_fetch", json.RawMessage(`{"shard":0}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		// The response envelope dishrpc wraps the result in, at its
		// widest request id.
		frame, err := json.Marshal(struct {
			ID     uint64          `json:"id"`
			Result json.RawMessage `json:"result"`
		}{math.MaxUint64, body})
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) > dishrpc.MaxFrame {
			t.Errorf("fetch %d: response frame of %d bytes exceeds dishrpc.MaxFrame", fetches, len(frame))
		}
		var fr struct {
			Records []core.SlotRecord `json:"records"`
			Done    bool              `json:"done"`
			Error   string            `json:"error"`
		}
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.Error != "" {
			t.Fatal(fr.Error)
		}
		if fr.Done {
			break
		}
		fetches++
		records += len(fr.Records)
		for i := range fr.Records {
			if err := enc.Encode(&fr.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if records <= 128 || len(golden) <= dishrpc.MaxFrame {
		t.Fatalf("%d records in %d bytes: too few to need more than one frame", records, len(golden))
	}
	if fetches < 2 {
		t.Errorf("%d records in %d bytes came in %d fetch", records, len(golden), fetches)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("fetched stream differs from serial (%d vs %d bytes)", out.Len(), len(golden))
	}
}
