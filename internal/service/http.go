package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"sparkgo/internal/blob"
	"sparkgo/internal/explore"
)

// errStreamingUnsupported is answered when the transport cannot flush —
// SSE needs an http.Flusher.
var errStreamingUnsupported = errors.New("service: response writer does not support streaming")

// Server wires the queue to the HTTP API cmd/sparkd serves. Use
// NewServer and mount the handler; job payloads are JSON, blob payloads
// raw bytes.
type Server struct {
	queue   *Queue
	mux     *http.ServeMux
	started time.Time

	// Blob-API traffic counters (the server side of peers' remote
	// tiers), snapshotted into /v1/stats.
	blobGets    atomic.Int64
	blobHits    atomic.Int64
	blobPuts    atomic.Int64
	blobDeletes atomic.Int64
	blobErrors  atomic.Int64
}

// NewServer builds the HTTP front end over a queue.
func NewServer(q *Queue) *Server {
	s := &Server{queue: q, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.jobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	// "GET" patterns also match HEAD (presence probe without the body).
	s.mux.HandleFunc("GET /v1/blobs/{kind}/{key}", s.blobGet)
	s.mux.HandleFunc("PUT /v1/blobs/{kind}/{key}", s.blobPut)
	s.mux.HandleFunc("DELETE /v1/blobs/{kind}/{key}", s.blobDelete)
	s.mux.HandleFunc("GET /v1/stats", s.stats)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// MaxSubmitBytes bounds the body of POST /v1/jobs. A request is a few
// knobs plus at most one inline program, far below this; the bound keeps
// one client from making the daemon buffer an arbitrarily large body.
const MaxSubmitBytes = 1 << 20

// submit handles POST /v1/jobs: decode, enqueue (or attach to the
// in-flight identical job), and answer 202 with the job view. A deduped
// submit is flagged so clients know they are polling shared work. A body
// over MaxSubmitBytes is refused with 413 and enqueues nothing.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	// The whole body is read first, so a small JSON object followed by
	// an oversized tail is refused too.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSubmitBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("reading job request: %w", err))
		return
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, deduped, err := s.queue.Submit(req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	v := s.queue.View(job, false)
	v.Deduped = deduped
	writeJSON(w, http.StatusAccepted, v)
}

// list handles GET /v1/jobs: every job in issue order, without results.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.List())
}

// get handles GET /v1/jobs/{id}: the poll endpoint; terminal jobs carry
// their result (points, frontier, trajectory) inline.
func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, s.queue.View(job, true))
}

// cancel handles DELETE /v1/jobs/{id}: queued jobs die immediately,
// running jobs stop at the next evaluation-batch boundary. The response
// is the job's state at cancel time; clients poll for the terminal
// status.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, s.queue.View(job, true))
}

// blobCheck validates the {kind} path element and the schema header
// shared by every blob handler. Unknown kinds are 404; a schema skew is
// 412 (precondition failed), which remote-tier clients read as a clean
// miss — version skew across a fleet degrades to local work instead of
// aliasing artifacts across schemas.
func (s *Server) blobCheck(w http.ResponseWriter, r *http.Request) (kind, key string, ok bool) {
	kind, key = r.PathValue("kind"), r.PathValue("key")
	if !explore.ValidArtifactKind(kind) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown blob kind %q", kind))
		return "", "", false
	}
	if h := r.Header.Get(blob.SchemaHeader); h != "" && h != explore.DiskSchema() {
		w.Header().Set(blob.SchemaHeader, explore.DiskSchema())
		writeError(w, http.StatusPreconditionFailed,
			fmt.Errorf("schema mismatch: server %s, request %s", explore.DiskSchema(), h))
		return "", "", false
	}
	return kind, key, true
}

// blobGet handles GET and HEAD /v1/blobs/{kind}/{key}: the read side of
// the remote cache tier. Payloads are served from the daemon's local
// tiers only (memory, disk) — never proxied through its own remote
// tier, so chained daemons cannot loop. GET responses carry the payload
// digest for end-to-end verification.
func (s *Server) blobGet(w http.ResponseWriter, r *http.Request) {
	kind, key, ok := s.blobCheck(w, r)
	if !ok {
		return
	}
	eng := s.queue.Engine()
	if r.Method == http.MethodHead {
		found, err := eng.BlobStat(kind, key)
		if err != nil {
			s.blobErrors.Add(1)
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if !found {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Header().Set(blob.SchemaHeader, explore.DiskSchema())
		w.WriteHeader(http.StatusOK)
		return
	}
	s.blobGets.Add(1)
	data, found, err := eng.BlobGet(kind, key)
	if err != nil {
		s.blobErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("blob %s/%s not found", kind, key))
		return
	}
	s.blobHits.Add(1)
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set(blob.Sha256Header, hex.EncodeToString(sum[:]))
	w.Header().Set(blob.SchemaHeader, explore.DiskSchema())
	_, _ = w.Write(data)
}

// blobPut handles PUT /v1/blobs/{kind}/{key}: the write-through side of
// the remote tier. The declared digest (when present) is verified before
// anything is stored, so a truncated upload cannot poison the cache.
func (s *Server) blobPut(w http.ResponseWriter, r *http.Request) {
	kind, key, ok := s.blobCheck(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, blob.MaxRemoteBytes))
	if err != nil {
		s.blobErrors.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading blob body: %w", err))
		return
	}
	if want := r.Header.Get(blob.Sha256Header); want != "" {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want {
			s.blobErrors.Add(1)
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("blob %s/%s: payload hash mismatch", kind, key))
			return
		}
	}
	if err := s.queue.Engine().BlobPut(kind, key, body); err != nil {
		s.blobErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.blobPuts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// blobDelete handles DELETE /v1/blobs/{kind}/{key}; deleting an absent
// blob succeeds.
func (s *Server) blobDelete(w http.ResponseWriter, r *http.Request) {
	kind, key, ok := s.blobCheck(w, r)
	if !ok {
		return
	}
	if err := s.queue.Engine().BlobDelete(kind, key); err != nil {
		s.blobErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.blobDeletes.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// stats handles GET /v1/stats, attaching the server's blob-API counters
// to the queue's snapshot.
func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	v := s.queue.Stats()
	v.Blobs = BlobStatsView{
		Gets:    s.blobGets.Load(),
		Hits:    s.blobHits.Load(),
		Puts:    s.blobPuts.Load(),
		Deletes: s.blobDeletes.Load(),
		Errors:  s.blobErrors.Load(),
	}
	writeJSON(w, http.StatusOK, v)
}

// metrics handles GET /metrics: the engine bus's folded metrics in
// Prometheus text exposition format. A daemon whose engine runs without
// a bus serves an empty (but valid) exposition rather than 404, so
// scrape configs need not care how the daemon was wired.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.queue.Engine().Obs.Registry().WritePrometheus(w)
}

// healthView is the /healthz payload.
type healthView struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
}

// healthz handles GET /healthz: liveness for load balancers and CI,
// with enough build identity to tell which binary is answering.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	v := healthView{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				v.Revision = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, v)
}
