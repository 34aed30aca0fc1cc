package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkWarmFigure times a memoized GET /v1/figures/9 through the
// HTTP handler, in process: Fig. 9's cells are simulated before the
// timer starts, so each request costs its planning, coalescing,
// assembly and render. A developer tool with no committed baseline;
// compare two runs of your own.
func BenchmarkWarmFigure(b *testing.B) {
	s, _ := newTestServer(b, Options{})
	h := s.Handler()
	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/figures/9", nil))
		if w.Code != http.StatusOK {
			b.Fatalf("GET /v1/figures/9 = %d: %s", w.Code, w.Body)
		}
		return w
	}
	get()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := get(); w.Header().Get("X-Tusd-Cells-Run") != "0" {
			b.Fatalf("warm GET simulated %s cells", w.Header().Get("X-Tusd-Cells-Run"))
		}
	}
}
