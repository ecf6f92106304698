package ml

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// forestFingerprint hashes the serialized forest: every node's feature,
// threshold, children, leaf distribution, and per-tree importance go
// through the JSON encoder, so two forests share a fingerprint iff they
// are structurally bit-identical.
func forestFingerprint(t *testing.T, f *Forest) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestForestGoldenFingerprint pins the exact forests the seed's serial
// trainer produced. The parallel rank-bucket engine must keep every one
// of these hashes: they cover feature subsampling (sqrt default), full
// features, depth limits, leaf-size limits, and multiclass leaves.
func TestForestGoldenFingerprint(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
		cfg  ForestConfig
		want string
	}{
		{
			name: "gauss-default-subsample",
			d:    gaussDataset(200, 42),
			cfg:  ForestConfig{NumTrees: 20, Tree: TreeConfig{MaxDepth: 8}, Seed: 99},
			want: "8246e3f2a34e70b16af26f6a579cebd21763ad17a5cb42bba320be0082c71fcc",
		},
		{
			name: "gauss-all-features-minleaf",
			d:    gaussDataset(150, 43),
			cfg:  ForestConfig{NumTrees: 10, Tree: TreeConfig{MaxDepth: 12, MinSamplesLeaf: 3, MaxFeatures: 4}, Seed: 7},
			want: "024974203ccbfb5242cd69fa3bdf19b1e8b306ba95095e3e2a1c94d732949245",
		},
		{
			name: "xor-deep",
			d:    xorDataset(300, 44),
			cfg:  ForestConfig{NumTrees: 15, Tree: TreeConfig{MaxDepth: 10, MinSamplesSplit: 4}, Seed: 1234},
			want: "4f6c9d17b6a1e78a9badeac2916d29100de6458911dee4b99d36a773374f5f67",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := FitForestCtx(context.Background(), tc.d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := forestFingerprint(t, f); got != tc.want {
				t.Errorf("fingerprint = %s, want %s", got, tc.want)
			}
		})
	}
}
