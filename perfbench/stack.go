package main

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/daemon"
	"seccloud/internal/ibc"
	"seccloud/internal/netsim"
	"seccloud/internal/pairing"
	"seccloud/internal/store"
)

// workers bounds every concurrency knob of the stack: audit workers, the
// server's commitment workers and the pool's active conns.
const workers = 2

// Identity strings of the benchmark universe.
const (
	userID   = "user:bench"
	agencyID = "da:bench"
	serverID = "cs:bench"
)

// universe is the seeded identity set: the IBC master secret comes from a
// PRNG seeded with the benchmark seed, so the same seed extracts the same
// keys. Signing randomness stays crypto/rand.
type universe struct {
	pp     *pairing.Params
	sp     *ibc.SystemParams
	user   *core.User
	agency *core.Agency
	daKey  *ibc.PrivateKey
	srvKey *ibc.PrivateKey
}

func newUniverse(pp *pairing.Params, seed int64) (*universe, error) {
	sio, err := ibc.Setup(pp, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("ibc setup: %w", err)
	}
	keys := make(map[string]*ibc.PrivateKey, 3)
	for _, id := range []string{userID, agencyID, serverID} {
		k, err := sio.Extract(id)
		if err != nil {
			return nil, fmt.Errorf("extracting %s: %w", id, err)
		}
		keys[id] = k
	}
	sp := sio.Params()
	return &universe{
		pp:     pp,
		sp:     sp,
		user:   core.NewUser(sp, keys[userID], crand.Reader),
		agency: core.NewAgency(sp, keys[agencyID], crand.Reader).WithWorkers(workers),
		daKey:  keys[agencyID],
		srvKey: keys[serverID],
	}, nil
}

// newServer builds the cloud server; dur attaches a WAL.
func (u *universe) newServer(dur *core.DurabilityConfig) (*core.Server, error) {
	return core.NewServer(u.sp, u.srvKey, core.ServerConfig{
		Random:     crand.Reader,
		Workers:    workers,
		Durability: dur,
	})
}

// rig is one running daemon stack: server, socket, pool and client.
type rig struct {
	srv    *core.Server
	daemon *daemon.Server
	client *daemon.Client
	net    *timedClient
}

// startRig serves srv (behind wrap, when set) on a loopback socket and
// dials it through a warmed pool.
func startRig(srv *core.Server, wrap func(netsim.Handler) netsim.Handler, tr *tracer) (*rig, error) {
	var h netsim.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	d, err := daemon.Listen("127.0.0.1:0", daemon.ServerConfig{Handler: h})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	pool := daemon.NewPool(daemon.PoolConfig{Addr: d.Addr(), MaxActive: workers, MaxIdle: workers})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pool.Warm(ctx, workers); err != nil {
		pool.Close()
		d.Close()
		return nil, fmt.Errorf("warming pool: %w", err)
	}
	client := daemon.NewClient(pool, daemon.ClientConfig{Timeout: time.Minute})
	return &rig{srv: srv, daemon: d, client: client, net: newTimedClient(client, tr)}, nil
}

// stop closes the client, drains the socket and releases the server's WAL.
func (r *rig) stop() error {
	cerr := r.client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	derr := r.daemon.Shutdown(ctx)
	serr := r.srv.Close()
	for _, err := range []error{cerr, derr, serr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// snapshotEvery is the ingest server's compaction period in WAL records.
const snapshotEvery = 64

// durability is the ingest server's WAL: fsync on every record, snapshots
// every snapshotEvery records, writes through fsys (nil = the real disk).
func durability(dir string, fsys store.FS) *core.DurabilityConfig {
	return &core.DurabilityConfig{Dir: dir, FS: fsys, SnapshotEvery: snapshotEvery}
}
