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

// RemoteScorer adapts a predictd endpoint to scenario.OnlineScorer:
// campaigns stream revealed slots to a shared service over the wire
// instead of holding the model in-process (cmd/repro -predict-addr).
type RemoteScorer struct {
	c *Client
}

// NewRemoteScorer wraps a connected client.
func NewRemoteScorer(c *Client) *RemoteScorer { return &RemoteScorer{c: c} }

// ObserveRecord ships the record's observation to the remote service
// and returns its answer.
func (r *RemoteScorer) ObserveRecord(rec *core.SlotRecord) (ScoreUpdate, error) {
	return r.c.Observe(ObserveRequest{
		LocalHour: rec.LocalHour,
		Sats:      rec.AppendSats(nil),
		ChosenIdx: rec.ChosenIdx,
	})
}
