// BenchmarkBackendBatch is the one go-test benchmark at the module root:
// wire throughput of the httpbatch path at fixed batch sizes, a question
// no other suite asks. Run it with
//
//	go test -run=NONE -bench=BenchmarkBackendBatch -benchmem .
//
// The paper's tables and figures come from cmd/exbench -experiment (shape
// checks in internal/bench's tests); end-to-end engine performance is
// measured by the benchmark/ harness, parent against change; and the
// remaining switch pairs (adaptive rounds, scatter-gather, global budget)
// and the memo-cache fleet row are gated by cmd/exbench -bench-compare.
package exsample_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend/httpbatch"
)

// BenchmarkBackendBatch measures the httpbatch wire path end to end — a
// loopback server wrapping the simulated detector, an httpbatch client on
// the query side — at batch sizes 1, 8 and 32. The reported frames/s is
// raw wire+inference throughput (frames pushed through DetectBatch per
// wall second); growing it with the batch size is the whole point of the
// batched Backend contract.
func BenchmarkBackendBatch(b *testing.B) {
	ds, err := exsample.OpenProfile("dashcam", 0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(httpbatch.Handler(ds.Backend()))
	defer srv.Close()
	class := ds.Classes()[0]
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			client, err := httpbatch.New(httpbatch.Config{Endpoint: srv.URL, MaxBatch: batch})
			if err != nil {
				b.Fatal(err)
			}
			frames := make([]int64, batch)
			start := time.Now()
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range frames {
					frames[k] = (int64(i)*int64(batch) + int64(k)) % ds.NumFrames()
				}
				if _, err := client.DetectBatch(context.Background(), class, frames); err != nil {
					b.Fatal(err)
				}
				total += int64(batch)
			}
			b.StopTimer()
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(total)/secs, "frames/s")
			}
		})
	}
}
