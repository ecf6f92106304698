package predict

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dishrpc"
)

// Client is a typed dishrpc client for predictd. Like the transport it
// wraps, it is not safe for concurrent use; a campaign stream feeds
// it serially.
type Client struct {
	c *dishrpc.Client
}

// Dial connects to a predictd endpoint.
func Dial(addr string) (*Client, error) {
	c, err := dishrpc.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	return &Client{c: c}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.c.Close() }

// TopK returns the top-k head of the ranking (k=0 uses the server's
// configured horizon).
func (c *Client) TopK(localHour int, sats []SatParam, k int) (PredictResult, error) {
	var res PredictResult
	err := c.c.Call("topk", PredictRequest{LocalHour: localHour, Sats: sats, K: k}, &res)
	return res, err
}

// Observe folds one revealed slot into the remote model.
func (c *Client) Observe(req ObserveRequest) (ObserveResult, error) {
	var res ObserveResult
	err := c.c.Call("observe", req, &res)
	return res, err
}

// observeRecord rebuilds the campaign record an ObserveRequest
// describes, so the RPC path and the in-process path share one
// ObserveRecord implementation.
func observeRecord(req *ObserveRequest) *core.SlotRecord {
	rec := &core.SlotRecord{Observation: core.Observation{
		Terminal:  req.Terminal,
		LocalHour: req.LocalHour,
		ChosenIdx: req.ChosenIdx,
		Available: make([]core.SatObs, len(req.Sats)),
	}}
	for i, p := range req.Sats {
		rec.Available[i] = core.SatObs{
			AzimuthDeg:   p.AzimuthDeg,
			ElevationDeg: p.ElevationDeg,
			AgeYears:     p.AgeYears,
			Sunlit:       p.Sunlit,
		}
	}
	return rec
}

// RemoteScorer adapts a predictd endpoint to scenario.OnlineScorer:
// campaigns stream revealed slots to a shared service over the wire
// instead of holding the model in-process (cmd/repro -predict-addr).
type RemoteScorer struct {
	c *Client
}

// NewRemoteScorer wraps a connected client.
func NewRemoteScorer(c *Client) *RemoteScorer { return &RemoteScorer{c: c} }

// ObserveRecord ships the record's observation to the remote service
// and maps the answer back onto a ScoreUpdate.
func (r *RemoteScorer) ObserveRecord(rec *core.SlotRecord) (ScoreUpdate, error) {
	req := ObserveRequest{
		Terminal:  rec.Terminal,
		LocalHour: rec.LocalHour,
		ChosenIdx: rec.ChosenIdx,
		Sats:      make([]SatParam, len(rec.Available)),
	}
	for i, a := range rec.Available {
		req.Sats[i] = SatParam{
			AzimuthDeg:   a.AzimuthDeg,
			ElevationDeg: a.ElevationDeg,
			AgeYears:     a.AgeYears,
			Sunlit:       a.Sunlit,
		}
	}
	res, err := r.c.Observe(req)
	if err != nil {
		return ScoreUpdate{}, err
	}
	return ScoreUpdate{
		Scored:       res.Scored,
		Rank:         res.Rank,
		RecentTop1:   res.RecentTop1,
		RecentTopK:   res.RecentTopK,
		RefTop1:      res.RefTop1,
		Drift:        res.Drift,
		DriftEvents:  res.DriftEvents,
		Refits:       res.Refits,
		ModelVersion: res.ModelVersion,
	}, nil
}
