package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/telemetry"
)

// ServeConfig parameterizes a cluster Server.
type ServeConfig struct {
	// TCPAddr is the binary-protocol data-path listen address (":0"
	// picks a free port).
	TCPAddr string
	// HTTPAddr, when non-empty, serves /healthz, /readyz, /statusz and
	// the /admin/reshard endpoint.
	HTTPAddr string
}

// Server fronts a Router with the same binary TCP protocol esdserve
// speaks — served by the same server.FrameServer — so esdload (and any
// protocol client) talks to a cluster exactly as it talks to one node,
// plus an HTTP introspection surface whose /statusz carries the ring
// section.
type Server struct {
	r *Router

	frames *server.FrameServer
	httpLn net.Listener
	httpSr *http.Server

	draining chan struct{}
	drainMu  sync.Once
	start    time.Time
}

// NewServer listens and starts serving the router. The router's
// lifetime stays with the caller: Shutdown stops the listeners but does
// not Close the router.
func NewServer(r *Router, cfg ServeConfig) (*Server, error) {
	s := &Server{
		r:        r,
		draining: make(chan struct{}),
		start:    time.Now(),
	}
	ln, err := net.Listen("tcp", cfg.TCPAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen tcp %s: %w", cfg.TCPAddr, err)
	}
	if cfg.HTTPAddr != "" {
		if s.httpLn, err = net.Listen("tcp", cfg.HTTPAddr); err != nil {
			_ = ln.Close()
			return nil, fmt.Errorf("cluster: listen http %s: %w", cfg.HTTPAddr, err)
		}
	}
	s.frames = server.ServeFrames(ln, frontend{r}, s.draining)
	if s.httpLn != nil {
		s.httpSr = &http.Server{Handler: s.mux(), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = s.httpSr.Serve(s.httpLn) }()
	}
	return s, nil
}

// TCPAddr returns the bound data-path address.
func (s *Server) TCPAddr() string { return s.frames.Addr() }

// HTTPAddr returns the bound introspection address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Ready reports readiness: serving and at least one healthy node.
func (s *Server) Ready() bool {
	select {
	case <-s.draining:
		return false
	default:
	}
	return s.r.HealthyNodes() > 0
}

// Shutdown stops accepting, finishes in-flight frames and closes the
// listeners. On ctx expiry remaining connections are cut.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Do(func() { close(s.draining) })
	var firstErr error
	if s.httpSr != nil {
		if err := s.httpSr.Shutdown(ctx); err != nil {
			firstErr = err
			_ = s.httpSr.Close()
		}
	}
	if err := s.frames.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// frontend serves binary-protocol frames through the router. The router
// is the cluster's trace originator: a frame carrying trace 0 gets a
// freshly minted fleet ID (0 again when tracing is off), a nonzero wire
// ID is adopted, and either way the ID travels to every node the request
// touches and back to the client.
type frontend struct{ r *Router }

func (f frontend) trace(wire uint64) uint64 {
	if wire != 0 {
		return wire
	}
	return f.r.NewTraceID()
}

func (f frontend) Write(trace, addr uint64, line ecc.Line) (server.BatchWriteResult, uint64) {
	trace = f.trace(trace)
	out, err := f.r.WriteTraced(trace, addr, line)
	if err != nil {
		return server.BatchWriteResult{Err: err}, trace
	}
	return server.BatchWriteResult{Dedup: out.Dedup, PhysAddr: out.PhysAddr, LatencyNs: out.LatencyNs}, trace
}

func (f frontend) Read(trace, addr uint64) (server.BatchReadResult, uint64) {
	trace = f.trace(trace)
	out, err := f.r.ReadTraced(trace, addr)
	if err != nil {
		return server.BatchReadResult{Err: err}, trace
	}
	res := server.BatchReadResult{Hit: out.Hit, LatencyNs: out.LatencyNs}
	copy(res.Data[:], out.Data)
	return res, trace
}

// WriteBatch and ReadBatch drop the router's error: it only reports a
// results slice sized unlike the ops, which the frame server never sends.
func (f frontend) WriteBatch(trace uint64, ops []server.BatchWriteOp, res []server.BatchWriteResult) uint64 {
	trace = f.trace(trace)
	_ = f.r.WriteBatchTraced(trace, ops, res)
	return trace
}

func (f frontend) ReadBatch(trace uint64, addrs []uint64, res []server.BatchReadResult) uint64 {
	trace = f.trace(trace)
	_ = f.r.ReadBatchTraced(trace, addrs, res)
	return trace
}

func (f frontend) Flush() error { return f.r.Flush() }

func (f frontend) Stats() (server.StatsResponse, error) { return f.r.Stats() }

// NodeStatus is one backend's row in the /statusz ring section.
type NodeStatus struct {
	Name      string `json:"name"`
	TCPAddr   string `json:"tcp_addr"`
	HTTPAddr  string `json:"http_addr,omitempty"`
	Healthy   bool   `json:"healthy"`
	Writes    uint64 `json:"writes"`
	Reads     uint64 `json:"reads"`
	Errors    uint64 `json:"errors"`
	ProbeErrs uint64 `json:"probe_errors"`
}

// Status is the router's /statusz document: the ring section plus the
// routing budgets and counters, and — when tracing is on — the per-hop
// latency section (route, attempt, checkout, retry, hedge, ...) mirroring
// the per-stage section a node's /statusz carries.
type Status struct {
	Epoch         uint64                        `json:"epoch"`
	VNodes        int                           `json:"vnodes"`
	Replication   int                           `json:"replication"`
	Nodes         []NodeStatus                  `json:"nodes"`
	Healthy       int                           `json:"healthy_nodes"`
	Resharding    bool                          `json:"resharding"`
	LastReshard   *ReshardReport                `json:"last_reshard,omitempty"`
	Retries       uint64                        `json:"retries"`
	Failovers     uint64                        `json:"failovers"`
	Hedges        uint64                        `json:"hedges"`
	ReadRepairs   uint64                        `json:"read_repairs"`
	UptimeS       float64                       `json:"uptime_s"`
	Tracing       bool                          `json:"tracing"`
	FlightRecords int                           `json:"flight_records,omitempty"`
	Hops          map[string]server.StageStatus `json:"hops,omitempty"`
}

// Status builds the live router status document.
func (s *Server) Status() Status {
	r := s.r
	ring := r.Ring()
	st := Status{
		Epoch:       ring.Epoch(),
		VNodes:      ring.VNodes(),
		Replication: r.cfg.Replication,
		Resharding:  r.Resharding(),
		LastReshard: r.LastReshard(),
		Retries:     r.retries.Load(),
		Failovers:   r.failovers.Load(),
		Hedges:      r.hedges.Load(),
		ReadRepairs: r.repairs.Load(),
		UptimeS:     time.Since(s.start).Seconds(),
	}
	for _, ns := range r.allStates() {
		row := NodeStatus{
			Name:      ns.node.Name,
			TCPAddr:   ns.node.TCPAddr,
			HTTPAddr:  ns.node.HTTPAddr,
			Healthy:   ns.up.Load(),
			Writes:    ns.writes.Load(),
			Reads:     ns.reads.Load(),
			Errors:    ns.errs.Load(),
			ProbeErrs: ns.probeErrs.Load(),
		}
		if row.Healthy {
			st.Healthy++
		}
		st.Nodes = append(st.Nodes, row)
	}
	st.Tracing = r.TracingEnabled()
	if hists, ok := r.HopSnapshot(); ok {
		st.FlightRecords = len(r.HopRecords())
		st.Hops = make(map[string]server.StageStatus, len(hists))
		for i := range hists {
			h := &hists[i]
			if h.Count() == 0 {
				continue
			}
			st.Hops[telemetry.Hop(i).String()] = server.StageStatus{
				Count:  h.Count(),
				MeanNs: h.Mean().Nanoseconds(),
				P50Ns:  h.Percentile(0.5).Nanoseconds(),
				P99Ns:  h.Percentile(0.99).Nanoseconds(),
			}
		}
	}
	return st
}

func (s *Server) mux() http.Handler {
	// The router's /debug/flightrecorder holds attempt-level hop events
	// with trace IDs, the cross-node half of what esdtrace stitches
	// against each node's /debug/flightrecorder.
	mux := server.AdminMux(s.Ready, "no healthy backend", s.Status, s.r.HopRecords)
	mux.HandleFunc("/statusz/cluster", func(w http.ResponseWriter, req *http.Request) {
		server.WriteJSON(w, s.ClusterStatus())
	})
	mux.HandleFunc("/admin/reshard", s.handleReshard)
	return mux
}

// ReshardRequest is the /admin/reshard POST body: a membership delta
// plus the address-space bound to scan.
type ReshardRequest struct {
	Add    []Node   `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
	Space  uint64   `json:"space"`
}

func (s *Server) handleReshard(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body ReshardRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&body); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if body.Space == 0 {
		http.Error(w, "space must be positive (the scanned logical address bound)", http.StatusBadRequest)
		return
	}
	if len(body.Add) == 0 && len(body.Remove) == 0 {
		http.Error(w, "nothing to do: empty add and remove", http.StatusBadRequest)
		return
	}
	nodes, err := s.r.reshardNodes(body.Add, body.Remove)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rep, err := s.r.Reshard(nodes, body.Space)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	server.WriteJSON(w, rep)
}
