package cluster

import "testing"

func BenchmarkKMeans(b *testing.B) {
	points, _ := blobs(6, 100, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(points, Config{K: 6, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalancedKMeans(b *testing.B) {
	points, _ := blobs(6, 100, 8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BalancedKMeans(points, Config{K: 6, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBalancedKMeansBootstrap runs Bootstrap's shape: ≈ 625 instance
// score vectors of dimension 8 dealt into k = 80 clusters.
func BenchmarkBalancedKMeansBootstrap(b *testing.B) {
	points := uniformPoints(625, 8, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BalancedKMeans(points, Config{K: 80, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansBootstrap times Lloyd alone at Bootstrap's scale: 625
// points dealt into k = 80 clusters in dimension 10, the default number of
// I-to-S basis vectors.
func BenchmarkKMeansBootstrap(b *testing.B) {
	points := uniformPoints(625, 10, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(points, Config{K: 80, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSNE(b *testing.B) {
	points, _ := blobs(3, 30, 8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TSNE(points, TSNEConfig{Iterations: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
