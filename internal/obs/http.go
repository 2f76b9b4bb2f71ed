package obs

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	runtimepprof "runtime/pprof"
)

// Route is an extra endpoint mounted on the debug mux — how components
// (the annserve daemon's /debug/slow and /debug/requests tables) attach
// their inspectors to the shared metrics server.
type Route struct {
	Pattern string
	Handler http.Handler
}

// Mux returns the debug mux served at -pprof-addr:
// /metrics holds the registry snapshot (when reg is non-nil),
// /metrics/prom its Prometheus text exposition, and /debug/pprof/ the
// standard profiling endpoints. Extra routes are mounted as given.
func Mux(reg *Registry, extra ...Route) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg)
		mux.Handle("/metrics/prom", PrometheusHandler(reg))
		mux.Handle("/", http.RedirectHandler("/metrics", http.StatusFound))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, r := range extra {
		mux.Handle(r.Pattern, r.Handler)
	}
	return mux
}

// Serve starts the debug server on addr in a background goroutine and
// returns the bound address (useful with ":0"). The server lives until
// the process exits; tools treat it as fire-and-forget.
func Serve(addr string, reg *Registry, extra ...Route) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Mux(reg, extra...)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// ProfileFlags bundles the profiling hooks shared by the cmd tools:
// -cpuprofile, -memprofile and -pprof-addr.
type ProfileFlags struct {
	CPUProfile string
	MemProfile string
	PprofAddr  string
	// BoundAddr is the address the debug server actually bound, set by
	// Start when PprofAddr is non-empty (useful with ":0").
	BoundAddr string
}

// Register declares the three flags on fs.
func (f *ProfileFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&f.PprofAddr, "pprof-addr", "", "serve net/http/pprof (and /metrics) on this address")
}

// Start begins CPU profiling and the pprof server as requested. The
// returned stop function (never nil) ends the CPU profile and writes the
// heap profile; call it once on the way out. reg may be nil (the pprof
// server then has no /metrics endpoint). Extra routes are mounted on
// the debug mux alongside /metrics and /debug/pprof/.
func (f *ProfileFlags) Start(reg *Registry, extra ...Route) (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := runtimepprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if f.PprofAddr != "" {
		addr, err := Serve(f.PprofAddr, reg, extra...)
		if err != nil {
			if cpuFile != nil {
				runtimepprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, err
		}
		f.BoundAddr = addr
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", addr)
	}
	return func() error {
		if cpuFile != nil {
			runtimepprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				return err
			}
			defer mf.Close()
			runtime.GC() // materialise up-to-date allocation stats
			if err := runtimepprof.WriteHeapProfile(mf); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
