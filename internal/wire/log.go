package wire

import (
	"fmt"
	"strings"
)

// LogLevel orders a service's log severities. Logger.Level is the
// minimum level emitted.
type LogLevel int

const (
	LevelDebug LogLevel = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer with the log line's level token.
func (l LogLevel) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Logger is a service's leveled key=value log.
type Logger struct {
	// Logf, when non-nil, receives one line per call, no trailing
	// newline expected from the sink.
	Logf func(format string, args ...any)
	// Level is the minimum severity Logf receives. The zero value
	// (LevelDebug) emits everything.
	Level LogLevel
}

// Log emits one structured key=value line through Logf:
//
//	level=warn msg="handshake failed" conn=127.0.0.1:9 err="bad magic"
//
// kv is alternating key, value pairs; values are rendered with %v and
// quoted when they contain spaces, quotes or control bytes, so the line
// stays machine-splittable on spaces. Request-scoped call sites always
// pass the request and trace IDs — the contract that makes a slow-query
// entry, an access-log record and a log line about one request joinable.
func (l *Logger) Log(level LogLevel, msg string, kv ...any) {
	if l.Logf == nil || level < l.Level {
		return
	}
	var b strings.Builder
	b.WriteString("level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(logValue(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v", kv[i])
		b.WriteByte('=')
		b.WriteString(logValue(fmt.Sprintf("%v", kv[i+1])))
	}
	l.Logf("%s", b.String())
}

// printf writes one unleveled line through Logf: a daemon's own
// narration of its start and drain.
func (l *Logger) printf(format string, args ...any) {
	if l.Logf != nil {
		l.Logf(format, args...)
	}
}

// logValue renders one value token, quoting only when needed.
func logValue(v string) string {
	if v == "" {
		return `""`
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c <= ' ' || c == '"' || c == '=' || c > 0x7e {
			return fmt.Sprintf("%q", v)
		}
	}
	return v
}
