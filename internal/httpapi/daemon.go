package httpapi

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

// ListenAndServe runs a daemon's public listener until it fails or the
// process receives SIGINT or SIGTERM, and then shuts down in the one order
// that can finish: drain first — the daemon's DrainSubscriptions, which
// flushes pending deltas and sends every standing-query stream its terminal
// bye, so the open SSE responses end — then up to grace for the remaining
// in-flight requests. It returns the listener's error, or nil after a
// signalled shutdown.
func ListenAndServe(addr string, h http.Handler, queryTimeout, grace time.Duration, logger *slog.Logger, drain func()) error {
	// ReadHeaderTimeout bounds slow-loris headers; WriteTimeout leaves room
	// for the query deadline plus response encoding so the daemon never cuts
	// off a legitimate slow Exact before the API-level deadline does.
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      queryTimeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1) // one send, also when nobody is left to receive it
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	logger.Info("signal received, draining", "grace", grace)
	drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown failed", "err", err)
	}
	return nil
}
