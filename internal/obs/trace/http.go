package trace

import (
	"context"
	"net/http"
)

// Inject stamps the context's current span onto h as a traceparent
// header, so the receiving server joins the caller's trace with the
// correct parent link. Without a span in ctx it leaves h
// untouched.
func Inject(ctx context.Context, h http.Header) {
	sp := FromContext(ctx)
	if sp == nil {
		return
	}
	h.Set(Header, FormatTraceparent(sp.Context()))
}
