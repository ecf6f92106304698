package predict

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dishrpc"
	"repro/internal/features"
)

// RPC surface: predictd speaks the dishrpc framed protocol so campaign
// workers and the coordinator query it with the transport they already
// carry. Methods: predict (best cluster), topk (full head of the
// ranking), observe (fold a revealed slot in — the remote form of
// ObserveRecord), model_info, stats. Unknown methods return the typed
// dishrpc.ErrUnknownMethod so clients can tell protocol skew from a
// broken transport.

// maxSats bounds a request's available set; real visible sets are a
// few dozen, so anything huge is a corrupt or adversarial frame.
const maxSats = 4096

// SatParam is one available satellite in a request: the §6 features
// the service ranks, passed to it as they arrive.
type SatParam = features.Sat

// PredictRequest asks for a ranking of one slot's available set.
type PredictRequest struct {
	LocalHour int        `json:"local_hour"`
	Sats      []SatParam `json:"sats"`
	// K bounds the returned ranking for topk calls (default TopK).
	K int `json:"k,omitempty"`
}

func (p *PredictRequest) validate() error {
	if p.LocalHour < 0 || p.LocalHour > 23 {
		return fmt.Errorf("predict: local hour %d out of range 0..23", p.LocalHour)
	}
	if len(p.Sats) == 0 {
		return fmt.Errorf("predict: empty available set")
	}
	if len(p.Sats) > maxSats {
		return fmt.Errorf("predict: %d satellites exceeds limit %d", len(p.Sats), maxSats)
	}
	if p.K < 0 || p.K > features.NumClusters {
		return fmt.Errorf("predict: k %d out of range 0..%d", p.K, features.NumClusters)
	}
	return nil
}

// PredictResult is the answer to predict/topk: the top of the cluster
// ranking with per-cluster probabilities, plus which model answered.
type PredictResult struct {
	Clusters     []int     `json:"clusters"`
	Probs        []float64 `json:"probs"`
	ModelVersion int64     `json:"model_version"`
}

// ObserveRequest folds one revealed slot into the model remotely.
// ChosenIdx indexes Sats, mirroring core.Observation.
type ObserveRequest struct {
	LocalHour int        `json:"local_hour"`
	Sats      []SatParam `json:"sats"`
	ChosenIdx int        `json:"chosen_idx"`
}

func (o *ObserveRequest) validate() error {
	if o.LocalHour < 0 || o.LocalHour > 23 {
		return fmt.Errorf("predict: local hour %d out of range 0..23", o.LocalHour)
	}
	if len(o.Sats) > maxSats {
		return fmt.Errorf("predict: %d satellites exceeds limit %d", len(o.Sats), maxSats)
	}
	if o.ChosenIdx < -1 || o.ChosenIdx >= len(o.Sats) {
		return fmt.Errorf("predict: chosen index %d out of range for %d satellites", o.ChosenIdx, len(o.Sats))
	}
	return nil
}

// ObserveResult is the answer to observe: the ScoreUpdate itself.
type ObserveResult = ScoreUpdate

// ModelInfo describes the serving model.
type ModelInfo struct {
	ModelVersion int64 `json:"model_version"`
	NumTrees     int   `json:"num_trees"`
	NumClasses   int   `json:"num_classes"`
	NumFeatures  int   `json:"num_features"`
	Refits       int   `json:"refits"`
	WindowRows   int   `json:"window_rows"`
	TopK         int   `json:"top_k"`
}

// Handle dispatches one RPC. It has the dishrpc.Handler signature;
// wire it up with NewServer or dishrpc.NewHandlerServer.
func (s *Service) Handle(method string, params json.RawMessage) (any, error) {
	s.m.requests.Add(1)
	switch method {
	case "predict":
		return s.handleRank(params, 1)
	case "topk":
		return s.handleRank(params, 0)
	case "observe":
		return s.handleObserve(params)
	case "model_info":
		return s.handleModelInfo(), nil
	case "stats":
		return s.Stats(), nil
	default:
		return nil, dishrpc.UnknownMethod(method)
	}
}

// reuseSats empties a decoded request's satellites for the next
// decode. The backing array is zeroed, since decoding into it sets only
// the fields each satellite carries, and dropped once a request has
// grown it past maxSats.
func reuseSats(sats []SatParam) []SatParam {
	if cap(sats) > maxSats {
		return nil
	}
	clear(sats)
	return sats[:0]
}

// decodeRank decodes and validates a predict or topk request into sc's
// reused PredictRequest, zeroed first so that it reads as a fresh one.
// The request is valid until sc's next decode.
func (sc *Scratch) decodeRank(params json.RawMessage) (*PredictRequest, error) {
	req := &sc.rankReq
	*req = PredictRequest{Sats: reuseSats(req.Sats)}
	if err := sc.dec.Decode(params, req); err != nil {
		return nil, fmt.Errorf("predict: bad request: %w", err)
	}
	return req, req.validate()
}

// decodeObserve is decodeRank for an observe request.
func (sc *Scratch) decodeObserve(params json.RawMessage) (*ObserveRequest, error) {
	req := &sc.observeReq
	*req = ObserveRequest{Sats: reuseSats(req.Sats)}
	if err := sc.dec.Decode(params, req); err != nil {
		return nil, fmt.Errorf("predict: bad request: %w", err)
	}
	return req, req.validate()
}

// handleRank serves predict (forceK=1) and topk (forceK=0 → request K
// or the configured TopK).
func (s *Service) handleRank(params json.RawMessage, forceK int) (any, error) {
	sc := s.pool.Get().(*Scratch)
	defer s.pool.Put(sc)
	req, err := sc.decodeRank(params)
	if err != nil {
		return nil, err
	}
	k := forceK
	if k == 0 {
		k = req.K
		if k == 0 {
			k = s.cfg.TopK
		}
	}

	start := time.Now()
	version, err := s.Rank(req.LocalHour, req.Sats, sc)
	if err != nil {
		return nil, err
	}
	s.m.serve.Observe(time.Since(start).Seconds())

	res := PredictResult{
		Clusters:     make([]int, k),
		Probs:        make([]float64, k),
		ModelVersion: version,
	}
	for i := 0; i < k; i++ {
		res.Clusters[i] = sc.idx[i]
		res.Probs[i] = sc.probs[sc.idx[i]]
	}
	return res, nil
}

func (s *Service) handleObserve(params json.RawMessage) (any, error) {
	sc := s.pool.Get().(*Scratch)
	defer s.pool.Put(sc)
	req, err := sc.decodeObserve(params)
	if err != nil {
		return nil, err
	}
	up, err := s.observe(req.LocalHour, req.Sats, req.ChosenIdx, sc)
	if err != nil {
		return nil, err
	}
	return up, nil
}

func (s *Service) handleModelInfo() ModelInfo {
	f, v := s.Model()
	st := s.Stats()
	info := ModelInfo{
		ModelVersion: v,
		Refits:       st.Refits,
		WindowRows:   st.WindowRows,
		TopK:         s.cfg.TopK,
	}
	if f != nil {
		info.NumTrees = f.NumTrees()
		info.NumClasses = f.NumClasses()
		info.NumFeatures = f.NumFeatures()
	}
	return info
}

// NewServer binds the service to addr with the dishrpc framed
// protocol. Run it with srv.Serve(ctx).
func NewServer(addr string, s *Service) (*dishrpc.Server, error) {
	return dishrpc.NewHandlerServer(addr, s.Handle)
}
