package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Wire DTOs for model persistence ("Model release", paper §6: the
// trained model is published for future simulations). JSON keeps the
// artifact inspectable; trees serialize as flat node arrays.

type nodeDTO struct {
	Feature   int       `json:"f"`
	Threshold float64   `json:"t,omitempty"`
	Left      int32     `json:"l,omitempty"`
	Right     int32     `json:"r,omitempty"`
	Probs     []float64 `json:"p,omitempty"`
}

type treeDTO struct {
	Nodes      []nodeDTO `json:"nodes"`
	Importance []float64 `json:"importance"`
}

type forestDTO struct {
	Version     int       `json:"version"`
	NumClasses  int       `json:"num_classes"`
	NumFeatures int       `json:"num_features"`
	Trees       []treeDTO `json:"trees"`
}

// forestVersion guards the on-disk format.
const forestVersion = 1

// Save writes the forest as JSON.
func (f *Forest) Save(w io.Writer) error {
	dto := forestDTO{
		Version:     forestVersion,
		NumClasses:  f.numClasses,
		NumFeatures: f.numFeatures,
	}
	for _, t := range f.trees {
		td := treeDTO{Importance: t.importance}
		for i := range t.nodes {
			n := &t.nodes[i]
			nd := nodeDTO{Feature: n.feature, Threshold: n.threshold}
			if n.feature < 0 {
				// Format version 1 holds every leaf dense, one
				// probability per class.
				nd.Probs = make([]float64, t.numClasses)
				t.denseLeaf(n, nd.Probs)
			} else {
				nd.Left, nd.Right = n.left, n.right
			}
			td.Nodes = append(td.Nodes, nd)
		}
		dto.Trees = append(dto.Trees, td)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&dto); err != nil {
		return fmt.Errorf("ml: save forest: %w", err)
	}
	return nil
}

// ErrModelShape reports a serialized forest whose header does not
// match the feature schema the caller serves — a model trained against
// a different feature extraction. Callers that load models for serving
// (predictd) check with errors.Is and refuse the artifact up front,
// instead of failing per-prediction at checkWidth time.
var ErrModelShape = errors.New("ml: model shape mismatch")

// LoadForestFor reads a forest written by Save and validates its
// structure, behind a load-time schema gate: the serialized header's
// format version, feature width, and class count are checked before
// any tree decodes. wantFeatures/wantClasses of 0 skip that
// dimension. A mismatch returns an
// error wrapping ErrModelShape that names both shapes, so "wrong model
// file" fails at startup with a clear message rather than surfacing as
// a per-input width error mid-serve.
func LoadForestFor(r io.Reader, wantFeatures, wantClasses int) (*Forest, error) {
	var dto forestDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("ml: load forest: %w", err)
	}
	if dto.Version != forestVersion {
		return nil, fmt.Errorf("ml: forest format version %d, want %d", dto.Version, forestVersion)
	}
	if wantFeatures > 0 && dto.NumFeatures != wantFeatures {
		return nil, fmt.Errorf("%w: forest trained on %d features, caller serves %d",
			ErrModelShape, dto.NumFeatures, wantFeatures)
	}
	if wantClasses > 0 && dto.NumClasses != wantClasses {
		return nil, fmt.Errorf("%w: forest predicts %d classes, caller serves %d",
			ErrModelShape, dto.NumClasses, wantClasses)
	}
	if dto.NumClasses <= 0 || dto.NumFeatures <= 0 || len(dto.Trees) == 0 {
		return nil, fmt.Errorf("ml: forest header invalid (%d classes, %d features, %d trees)",
			dto.NumClasses, dto.NumFeatures, len(dto.Trees))
	}
	f := &Forest{numClasses: dto.NumClasses, numFeatures: dto.NumFeatures}
	for ti, td := range dto.Trees {
		t := &Tree{numClasses: dto.NumClasses, numFeatures: dto.NumFeatures, importance: td.Importance}
		if t.importance == nil {
			t.importance = make([]float64, dto.NumFeatures)
		}
		if len(t.importance) != dto.NumFeatures {
			return nil, fmt.Errorf("ml: tree %d importance length %d, want %d", ti, len(t.importance), dto.NumFeatures)
		}
		n := int32(len(td.Nodes))
		if n == 0 {
			return nil, fmt.Errorf("ml: tree %d has no nodes", ti)
		}
		for ni, nd := range td.Nodes {
			if nd.Feature >= dto.NumFeatures {
				return nil, fmt.Errorf("ml: tree %d node %d references feature %d", ti, ni, nd.Feature)
			}
			if nd.Feature >= 0 {
				if nd.Left < 0 || nd.Left >= n || nd.Right < 0 || nd.Right >= n {
					return nil, fmt.Errorf("ml: tree %d node %d has out-of-range children", ti, ni)
				}
				if nd.Left == int32(ni) || nd.Right == int32(ni) {
					return nil, fmt.Errorf("ml: tree %d node %d is self-referential", ti, ni)
				}
			} else if len(nd.Probs) != dto.NumClasses {
				return nil, fmt.Errorf("ml: tree %d leaf %d has %d probs, want %d", ti, ni, len(nd.Probs), dto.NumClasses)
			}
			if nd.Feature < 0 {
				t.addLeaf(nd.Probs)
			} else {
				t.nodes = append(t.nodes, node{
					feature: nd.Feature, threshold: nd.Threshold,
					left: nd.Left, right: nd.Right,
				})
			}
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}
