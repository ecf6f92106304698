package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/features"
	"repro/internal/ml"
)

// DatasetBuilder converts an observation stream into the §6
// supervised problem incrementally: X = [local hour, per-cluster
// availability counts], y = cluster of the chosen satellite. Slots
// without an identified chosen satellite are skipped. The builder
// holds only the growing dataset — one feature vector per usable
// observation — never the observations themselves.
type DatasetBuilder struct {
	d    *ml.Dataset
	sats []features.Sat // scratch, reused across Adds
	slot features.Slot  // scratch, reused across Adds
}

// NewDatasetBuilder returns an empty builder.
func NewDatasetBuilder() *DatasetBuilder {
	return &DatasetBuilder{d: &ml.Dataset{NumClasses: features.NumClusters}}
}

// Add folds in one observation; it implements ObservationConsumer.
func (b *DatasetBuilder) Add(o Observation) error {
	if _, ok := o.Chosen(); !ok {
		return nil
	}
	b.sats = o.AppendSats(b.sats[:0])
	x := make([]float64, features.VectorLen) // the row the dataset keeps
	label, err := features.RowInto(&b.slot, b.sats, o.LocalHour, o.ChosenIdx, x)
	if err != nil {
		return fmt.Errorf("core: slot %v at %s: %w", o.SlotStart, o.Terminal, err)
	}
	b.d.X = append(b.d.X, x)
	b.d.Y = append(b.d.Y, label)
	return nil
}

// AppendSats appends the §6 features of o's available set to dst, in
// order: the one conversion from an observation to the model's
// satellites.
func (o *Observation) AppendSats(dst []features.Sat) []features.Sat {
	for _, a := range o.Available {
		dst = append(dst, features.Sat{
			AzimuthDeg:   a.AzimuthDeg,
			ElevationDeg: a.ElevationDeg,
			AgeYears:     a.AgeYears,
			Sunlit:       a.Sunlit,
		})
	}
	return dst
}

// Finalize returns the dataset. The builder must not be reused after.
func (b *DatasetBuilder) Finalize() (*ml.Dataset, error) {
	if len(b.d.X) == 0 {
		return nil, fmt.Errorf("core: no usable observations for the model")
	}
	return b.d, nil
}

// BaselineRanker is the paper's baseline: predict the cluster(s) with
// the most available satellites, straight from the feature vector.
func BaselineRanker() ml.Ranker {
	return ml.RankerFunc(func(x []float64) ([]int, error) {
		return features.BaselineRanking(x)
	})
}

// The §6 protocol's fixed values: a 0.2 validation split, grid-search
// configurations picked on top-5 accuracy (the paper's headline k), and
// top-k curves for k = 1..9 (Figure 8's x-axis).
const (
	holdoutFrac = 0.2
	gridTopK    = 5
	maxK        = 9
)

// ModelConfig controls the §6 training protocol.
type ModelConfig struct {
	// Folds for cross-validated grid search (paper: 5).
	Folds int
	// Grid lists candidate forest configurations; nil uses a default
	// grid over tree count and depth.
	Grid []ml.ForestConfig
	// Seed drives splits and training.
	Seed int64
	// Workers bounds the training worker pool shared by the grid
	// search, cross-validation, and the final forest fit (0 =
	// GOMAXPROCS, 1 = serial). Results are bit-identical at any value.
	Workers int
	// Metrics, when non-nil, receives training telemetry from every
	// forest fitted (grid-search folds and the final fit alike).
	Metrics *ml.Metrics
}

func (c *ModelConfig) applyDefaults() {
	if c.Folds == 0 {
		c.Folds = 5
	}
	if len(c.Grid) == 0 {
		c.Grid = []ml.ForestConfig{
			{NumTrees: 40, Tree: ml.TreeConfig{MaxDepth: 8}},
			{NumTrees: 40, Tree: ml.TreeConfig{MaxDepth: 14}},
			{NumTrees: 80, Tree: ml.TreeConfig{MaxDepth: 10}},
			{NumTrees: 80, Tree: ml.TreeConfig{MaxDepth: 16, MinSamplesLeaf: 2}},
		}
	}
}

// FeatureImportance is one named importance entry.
type FeatureImportance struct {
	Name       string
	Importance float64
}

// ModelResult is the §6 outcome: the Figure 8 curves plus the trained
// model and its explanation.
type ModelResult struct {
	Forest *ml.Forest
	// BestConfig is the grid-search winner and its CV score.
	BestConfig ml.GridPoint
	// ModelTopK[k-1] and BaselineTopK[k-1] are holdout top-k accuracy
	// for k = 1..9 — exactly Figure 8's two series.
	ModelTopK    []float64
	BaselineTopK []float64
	// Importances are the named gini importances, descending.
	Importances []FeatureImportance
	// TrainRows/HoldoutRows record the split sizes.
	TrainRows, HoldoutRows int
}

// TrainModel runs the full §6 protocol: 80/20 split, grid search with
// k-fold CV on the training side, final fit, holdout evaluation of
// model and baseline, and gini importance extraction.
func TrainModel(d *ml.Dataset, cfg ModelConfig) (*ModelResult, error) {
	return TrainModelCtx(context.Background(), d, cfg)
}

// TrainModelCtx is TrainModel on a ctx-cancellable bounded worker pool
// (cfg.Workers): the grid search fans out over (config, fold) pairs
// and the final fit trains trees concurrently, with the result
// bit-identical to the serial protocol at any worker count.
func TrainModelCtx(ctx context.Context, d *ml.Dataset, cfg ModelConfig) (*ModelResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	trainIdx, testIdx, err := ml.TrainTestSplit(len(d.X), holdoutFrac, rng)
	if err != nil {
		return nil, err
	}
	train := d.Subset(trainIdx)
	test := d.Subset(testIdx)

	// Seed each grid config deterministically from the model seed.
	grid := make([]ml.ForestConfig, len(cfg.Grid))
	for i, g := range cfg.Grid {
		g.Seed = cfg.Seed + int64(i) + 1
		g.Workers = cfg.Workers
		g.Metrics = cfg.Metrics
		grid[i] = g
	}
	points, err := ml.GridSearchCtx(ctx, train, grid, cfg.Folds, gridTopK, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: grid search: %w", err)
	}
	best := points[0]

	forest, err := ml.FitForestCtx(ctx, train, best.Config)
	if err != nil {
		return nil, fmt.Errorf("core: final fit: %w", err)
	}

	modelCurve, err := ml.TopKCurve(ml.ForestRanker{Forest: forest}, test, maxK)
	if err != nil {
		return nil, fmt.Errorf("core: model eval: %w", err)
	}
	baseCurve, err := ml.TopKCurve(BaselineRanker(), test, maxK)
	if err != nil {
		return nil, fmt.Errorf("core: baseline eval: %w", err)
	}

	imp := forest.Importance()
	named := make([]FeatureImportance, len(imp))
	for i, v := range imp {
		named[i] = FeatureImportance{Name: features.FeatureName(i), Importance: v}
	}
	sort.SliceStable(named, func(i, j int) bool { return named[i].Importance > named[j].Importance })

	return &ModelResult{
		Forest:       forest,
		BestConfig:   best,
		ModelTopK:    modelCurve,
		BaselineTopK: baseCurve,
		Importances:  named,
		TrainRows:    len(trainIdx),
		HoldoutRows:  len(testIdx),
	}, nil
}
