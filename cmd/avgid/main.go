// Command avgid is the assessment-as-a-service daemon: a long-running
// HTTP server that answers vulnerability-assessment requests over the
// durable journal cache. A request that is fully journalled is answered
// straight from shard loads with zero simulation; concurrent identical
// requests coalesce onto one execution; cache misses simulate under the
// requesting tenant's share of one global worker budget, so a single
// tenant's 100k-fault campaign can never starve everyone else's
// cache-miss traffic. See docs/SERVICE.md for the API and semantics.
//
// Usage:
//
//	avgid [flags]
//
// Endpoints:
//
//	POST /v1/assess             run (or answer from cache) one assessment
//	GET  /v1/requests           request registry, newest first
//	GET  /v1/requests/{id}      one registry entry
//	GET  /v1/requests/{id}/watch  NDJSON live progress until the request ends
//	GET  /metrics, /progress.json, /trace.json, /debug/pprof/, ...  telemetry
//
// Example:
//
//	avgid -addr :8080 -journal /var/cache/avgid &
//	curl -s localhost:8080/v1/assess -d '{"structure":"RF","workload":"sha","mode":"hvf","faults":200}'
//
// SIGTERM or SIGINT drains gracefully: the listener closes immediately,
// in-flight assessments get -drain-timeout to finish, then the process
// exits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"avgi"
	"avgi/internal/cliflags"
	"avgi/internal/clilog"
	"avgi/internal/obs"
)

var serverFlags = cliflags.RegisterServer(flag.CommandLine)

func main() {
	flag.Parse()
	logger, err := clilog.New(os.Stderr, "avgid", serverFlags.Log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avgid:", err)
		os.Exit(2)
	}
	fsync, err := serverFlags.SyncPolicy()
	if err != nil {
		logger.Error(err.Error())
		os.Exit(2)
	}
	obsv := avgi.NewObserver(os.Stderr)
	svc, err := avgi.NewService(avgi.ServiceConfig{
		Workers:           serverFlags.Workers,
		TenantWorkers:     serverFlags.TenantWorkers,
		JournalDir:        serverFlags.Journal,
		ShardCacheEntries: serverFlags.ShardCache,
		Fsync:             fsync,
		Obs:               obsv,
	})
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	srv, err := obs.NewServer(serverFlags.Addr, newHandler(svc, obsv, logger))
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	srv.SetDrainTimeout(serverFlags.DrainTimeout)
	stopHealth := obsv.StartHealth(10 * time.Second)
	defer stopHealth()
	// The bound address goes to stdout (not the log) so scripts starting
	// the server on :0 can read the ephemeral port.
	fmt.Printf("avgid listening on http://%s/ (workers %d, tenant cap %d, journal %q)\n",
		srv.Addr(), svc.Budget().Cap(), svc.TenantCap(), serverFlags.Journal)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	logger.Info("draining", slog.String("signal", got.String()),
		slog.Duration("timeout", serverFlags.DrainTimeout))
	if err := srv.Close(); err != nil {
		logger.Error("drain: " + err.Error())
		os.Exit(1)
	}
}

// maxAssessBody bounds a POST /v1/assess body (1 MiB). A real
// AssessRequest is a few hundred bytes; reading stops at the bound and the
// request gets a 413.
const maxAssessBody = 1 << 20

// jsonError is the uniform error body of every non-2xx API response.
type jsonError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, jsonError{Error: err.Error()})
}

// newHandler assembles the avgid mux: the assessment API in front, the
// observer's telemetry endpoints (/metrics, /progress.json, /trace.json,
// /debug/pprof/, ...) as the fallback — one server, one port.
func newHandler(svc *avgi.Service, obsv *avgi.Observer, logger *slog.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assess", func(w http.ResponseWriter, r *http.Request) {
		var req avgi.AssessRequest
		r.Body = http.MaxBytesReader(w, r.Body, maxAssessBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, fmt.Errorf("decoding request: %w", err))
			return
		}
		resp, err := svc.Assess(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Requests())
	})
	mux.HandleFunc("GET /v1/requests/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := requestByPath(svc, r)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such request"))
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/requests/{id}/watch", func(w http.ResponseWriter, r *http.Request) {
		info, ok := requestByPath(svc, r)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("no such request"))
			return
		}
		watchRequest(svc, obsv, info.ID, w, r)
	})
	mux.Handle("/", obsv.Handler())
	return recoverJSON(mux, logger)
}

func requestByPath(svc *avgi.Service, r *http.Request) (avgi.RequestInfo, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return avgi.RequestInfo{}, false
	}
	return svc.Request(id)
}

// watchFrame is one NDJSON line of a /watch stream: the request's current
// registry state plus the live progress of its campaign pair (present
// while the pair is announced; journal hits may never announce one).
type watchFrame struct {
	ID    uint64            `json:"id"`
	State avgi.RequestState `json:"state"`
	Error string            `json:"error,omitempty"`
	Pair  *obs.PairProgress `json:"pair,omitempty"`
	Study *watchTotals      `json:"totals,omitempty"`
}

// watchTotals is the service-wide fault completion state shown alongside
// the watched pair.
type watchTotals struct {
	FaultsDone  int64 `json:"faultsDone"`
	FaultsTotal int64 `json:"faultsTotal"`
}

// watchPollInterval paces /watch streams; short enough to feel live, long
// enough that a watcher costs nothing next to a campaign.
const watchPollInterval = 200 * time.Millisecond

// watchRequest streams one frame per poll until the watched request leaves
// the running state (one final frame carries the terminal state), the
// client goes away, or the server drains.
func watchRequest(svc *avgi.Service, obsv *avgi.Observer, id uint64, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(watchPollInterval)
	defer ticker.Stop()
	for {
		info, ok := svc.Request(id)
		if !ok {
			return
		}
		frame := watchFrame{ID: info.ID, State: info.State, Error: info.Error}
		if obsv != nil && obsv.Progress != nil {
			snap := obsv.Progress.Snapshot()
			req := info.Request
			for i := range snap.Pairs {
				p := snap.Pairs[i]
				if p.Structure == req.Structure && p.Workload == req.Workload && p.Mode == req.Mode {
					frame.Pair = &p
					break
				}
			}
			frame.Study = &watchTotals{
				FaultsDone:  snap.FaultsDone,
				FaultsTotal: snap.FaultsTotal,
			}
		}
		if err := enc.Encode(frame); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if info.State != avgi.StateRunning {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// recoverJSON converts handler panics (a campaign invariant violation, a
// broken runner) into JSON 500s instead of killing the connection with a
// bare stack trace, and logs them.
func recoverJSON(next http.Handler, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				if logger != nil {
					logger.Error("panic serving request",
						slog.String("path", r.URL.Path), slog.String("panic", fmt.Sprint(p)))
				}
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}
