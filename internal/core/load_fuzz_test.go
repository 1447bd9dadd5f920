package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
)

// savedModel returns the JSON of a trained detector and its decoded
// wrapper, the starting point for the corrupted model files below.
func savedModel(tb testing.TB) ([]byte, detectorJSON) {
	tb.Helper()
	d, _ := trainTestDetector(tb)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	var dj detectorJSON
	if err := json.Unmarshal(buf.Bytes(), &dj); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), dj
}

// withMixture re-encodes a saved detector with its mixture components
// rewritten by edit.
func withMixture(tb testing.TB, dj detectorJSON, edit func(comps []map[string]any)) []byte {
	tb.Helper()
	var comps []map[string]any
	if err := json.Unmarshal(dj.GMM, &comps); err != nil {
		tb.Fatal(err)
	}
	edit(comps)
	raw, err := json.Marshal(comps)
	if err != nil {
		tb.Fatal(err)
	}
	dj.GMM = raw
	out, err := json.Marshal(dj)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// nonSPD replaces the first component's covariance with a negative
// definite one, which no Cholesky factorization accepts.
func nonSPD(comps []map[string]any) {
	n := len(comps[0]["mean"].([]any))
	cov := make([][]float64, n)
	for i := range cov {
		cov[i] = make([]float64, n)
		cov[i][i] = -1
	}
	comps[0]["cov"] = cov
}

// shrunk gives the last component one dimension fewer than the basis:
// each component is well formed on its own, but the mixture does not
// fuse with the eigenmemories.
func shrunk(comps []map[string]any) {
	c := comps[len(comps)-1]
	n := len(c["mean"].([]any)) - 1
	c["mean"] = make([]float64, n)
	cov := make([][]float64, n)
	for i := range cov {
		cov[i] = make([]float64, n)
		cov[i][i] = 1
	}
	c["cov"] = cov
}

// typedLoadError reports whether a Load failure carries one of the
// package sentinels a model registry can branch on.
func typedLoadError(err error) bool {
	for _, target := range []error{ErrConfig, ErrRegionMismatch, pca.ErrTraining, gmm.ErrTraining} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// FuzzLoad hardens the model-file loader that feeds hot swaps: any
// input either fails with a typed error or yields a detector whose
// scoring entry points run without panicking.
func FuzzLoad(f *testing.F) {
	valid, dj := savedModel(f)
	f.Add(valid)
	for _, n := range []int{0, 1, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
		f.Add(valid[:n])
	}
	for _, i := range []int{2, len(valid) / 4, len(valid) / 2, 3 * len(valid) / 4} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x04
		f.Add(flipped)
	}
	f.Add(withMixture(f, dj, nonSPD))
	f.Add(withMixture(f, dj, shrunk))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			if !typedLoadError(err) {
				t.Fatalf("untyped Load error: %v", err)
			}
			return
		}
		m, err := heatmap.New(d.Region)
		if err != nil {
			t.Fatalf("loaded region: %v", err)
		}
		for i := range m.Counts {
			m.Counts[i] = uint32(i % 7)
		}
		// A corrupted model may score anything, or fail; it must not
		// panic.
		_, _ = d.LogDensity(m)
		_, _ = d.Residual(m)
		if _, err := d.ScoreEngine(); err != nil {
			t.Fatalf("loaded detector has no engine: %v", err)
		}
	})
}
