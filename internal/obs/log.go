package obs

import (
	"io"
	"log/slog"
	"os"
	"strings"
)

// NewLogger builds a slog.Logger writing to w at the given level, in
// logfmt-style text or JSON.
func NewLogger(w io.Writer, level slog.Level, json bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// DaemonLoggerTo is the standard daemon logging setup: w (a daemon's
// stderr, which its tests replace), text format, info level, tagged with
// the daemon name. The environment overrides the defaults so operators can
// turn on debug logging or JSON shipping without a redeploy:
//
//	MBURST_LOG_LEVEL=debug|info|warn|error
//	MBURST_LOG_FORMAT=text|json
//
// The returned logger is also installed as slog's default so stray
// slog.Info calls in libraries land in the same stream.
func DaemonLoggerTo(w io.Writer, name string) *slog.Logger {
	level := slog.LevelInfo
	switch strings.ToLower(os.Getenv("MBURST_LOG_LEVEL")) {
	case "debug":
		level = slog.LevelDebug
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	}
	json := strings.EqualFold(os.Getenv("MBURST_LOG_FORMAT"), "json")
	logger := NewLogger(w, level, json).With("daemon", name)
	slog.SetDefault(logger)
	return logger
}
