package server

import "testing"

// BenchmarkWarmFigure times a memoized GET /v1/figures/9 through the
// HTTP handler, in process: Fig. 9 is built before the timer starts, so
// each request is born done from that job's bytes and costs its lookup,
// job record and reply. A developer tool with no committed baseline;
// compare two runs of your own.
func BenchmarkWarmFigure(b *testing.B) {
	s, _ := newTestServer(b, Options{})
	h := s.Handler()
	getFigure(b, h, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := getFigure(b, h, 9); w.Header().Get("X-Tusd-Cells-Run") != "0" {
			b.Fatalf("warm GET simulated %s cells", w.Header().Get("X-Tusd-Cells-Run"))
		}
	}
}
