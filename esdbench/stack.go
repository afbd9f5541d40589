package main

import (
	"context"
	"fmt"
	"time"

	"github.com/esdsim/esd"
	"github.com/esdsim/esd/internal/cluster"
	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/memctrl"
	"github.com/esdsim/esd/internal/server"
	"github.com/esdsim/esd/internal/shard"
)

// Every instance the benchmark boots runs scheme esd on config.Default
// with coalescing off, so the count identities in checkCounts hold.
const scheme = "esd"

func newSystem() (*esd.System, error) {
	return esd.NewSystem(esd.DefaultConfig(), esd.SchemeESD)
}

// newEngine builds a sharded engine; telemetry turns on metrics and stage
// tracing, as esdserve -metrics (tracing is esdserve's default) does.
func newEngine(shards int, telemetry bool) (*shard.Engine, error) {
	return shard.New(config.Default(), scheme, shard.Options{Shards: shards, Metrics: telemetry, Tracing: telemetry})
}

// node is one in-process esdserve: a shard engine behind the HTTP and
// binary-TCP front end.
type node struct {
	eng *shard.Engine
	srv *server.Server
}

func bootNode(shards int) (*node, error) {
	eng, err := newEngine(shards, true)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(eng, server.Config{Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0"})
	if err != nil {
		_ = eng.Close()
		return nil, err
	}
	return &node{eng: eng, srv: srv}, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	_ = n.eng.Close()
}

// fleetNodes and fleetReplication shape the routed-scalar fleet: two
// one-shard nodes, every address on both.
const (
	fleetNodes       = 2
	fleetReplication = 2
)

// fleet is an in-process esdrouter in front of its nodes.
type fleet struct {
	nodes  []*node
	router *cluster.Router
	front  *cluster.Server
}

// bootFleet boots the nodes and a router with esdrouter's flag defaults
// except Replication.
func bootFleet() (*fleet, error) {
	f := &fleet{}
	var members []cluster.Node
	for i := 0; i < fleetNodes; i++ {
		n, err := bootNode(1)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		members = append(members, cluster.Node{Name: fmt.Sprintf("node%d", i), TCPAddr: n.srv.TCPAddr(), HTTPAddr: n.srv.Addr()})
	}
	r, err := cluster.NewRouter(cluster.Config{
		Nodes:           members,
		VNodes:          cluster.DefaultVNodes,
		Replication:     fleetReplication,
		RetriesPerNode:  1,
		RequestTimeout:  2 * time.Second,
		ReadRepairEvery: 64,
		ProbeInterval:   time.Second,
		PoolMaxIdle:     8,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = r
	front, err := cluster.NewServer(r, cluster.ServeConfig{TCPAddr: "127.0.0.1:0"})
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = front
	return f, nil
}

func (f *fleet) close() {
	if f.front != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = f.front.Shutdown(ctx)
		cancel()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.nodes {
		n.close()
	}
}

func (f *fleet) engines() []*shard.Engine {
	out := make([]*shard.Engine, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.eng
	}
	return out
}

// engineTotals is the simulated state of a set of engines: scheme
// counters, energy, media counts and hottest line, summed (max for wear)
// over every shard of every engine.
type engineTotals struct {
	scheme       memctrl.SchemeStats
	energy       float64
	deviceWrites uint64
	deviceReads  uint64
	metadata     int64
	maxWear      uint64
}

// totals reads every engine's Summary, a barrier behind all queued work.
func totals(engs []*shard.Engine) (engineTotals, error) {
	var t engineTotals
	for _, e := range engs {
		sum, err := e.Summary()
		if err != nil {
			return t, err
		}
		t.scheme = t.scheme.Add(sum.Scheme)
		t.energy += sum.Energy.Total()
		t.deviceWrites += sum.DeviceWrites
		t.deviceReads += sum.DeviceReads
		t.metadata += sum.MetadataNVMM
		if sum.MaxWear > t.maxWear {
			t.maxWear = sum.MaxWear
		}
	}
	return t, nil
}

func systemTotals(sys *esd.System) engineTotals {
	h := sys.DeviceHealth()
	return engineTotals{
		scheme:       sys.Stats(),
		energy:       sys.Energy(),
		deviceWrites: sys.DeviceWrites(),
		deviceReads:  h.Reads,
		metadata:     sys.MetadataNVMM(),
		maxWear:      h.MaxWear,
	}
}

// checkCounts verifies the scheme-esd count identities: every write is
// either deduplicated or stored, and either hit or missed the EFIT.
func checkCounts(s memctrl.SchemeStats) error {
	if s.DedupWrites+s.UniqueWrites != s.Writes {
		return fmt.Errorf("DedupWrites %d + UniqueWrites %d != Writes %d", s.DedupWrites, s.UniqueWrites, s.Writes)
	}
	if s.FPCacheHits+s.FPCacheMisses != s.Writes {
		return fmt.Errorf("FPCacheHits %d + FPCacheMisses %d != Writes %d", s.FPCacheHits, s.FPCacheMisses, s.Writes)
	}
	return nil
}
