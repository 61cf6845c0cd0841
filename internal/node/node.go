// Package node assembles one pcd daemon — durable store, replication
// role, diagnosis server, listener — from a Config, and takes it down
// again in drain order. cmd/pcd, the pcload harness and pcfeed all
// start their daemons here, so the daemon a load run measures is the
// one that ships (DESIGN.md §8, "Node assembly").
package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/replica"
	"repro/internal/server"
)

// Config describes one node. Every field is a pcd flag (named in its
// comment), except Wrap and WrapShard, the backend seams of
// history.DurableOptions that fault injection rides on.
type Config struct {
	// Addr is the listen address (-addr); "" means 127.0.0.1:0, a free
	// loopback port.
	Addr string
	// Store is the store directory (-store). Create makes it when absent
	// (-create); Shards fixes a new store's layout (-shards, 0 = single
	// store or whatever layout exists).
	Store  string
	Create bool
	Shards int
	// WAL journals every write ahead of the record files (-wal); WALSync
	// is the journal's fsync policy (-wal-sync, "" means always).
	WAL     bool
	WALSync history.SyncPolicy
	// BreakerThreshold is the consecutive backend failures that open the
	// store's breaker, each shard's on its own (-breaker-threshold,
	// <= 0 means 3).
	BreakerThreshold int
	// Wrap and WrapShard decorate the store's backends — pcd's -fault-*
	// flags, a load suite's [faults] table and its scripted shard kill.
	Wrap      func(history.Backend) history.Backend
	WrapShard func(shard int, b history.Backend) history.Backend
	// Server tunes the service: -sessions, -session-timeout,
	// -breaker-cooldown, -session-retries and the -ingest-* flags.
	// Replication and WriteGate belong to the node's role: Start sets
	// them and refuses a Config that does.
	Server server.Options
	// CheckpointEvery is the journaled-session checkpoint cadence in
	// virtual seconds (-checkpoint-every, <= 0 means 2500);
	// ResumeSessions re-runs sessions a crash orphaned (-resume-sessions).
	CheckpointEvery float64
	ResumeSessions  bool
	// DrainTimeout bounds how long Stop waits for in-flight sessions
	// (-drain-timeout, <= 0 means 30s).
	DrainTimeout time.Duration

	// Replicas makes the node the primary of that many followers
	// (-replicas); Follow makes it a follower of the primary at that URL
	// (-follow). A node is one or the other.
	Replicas int
	Follow   string
	// Promote hands a failed shard's keyspace to the most-caught-up
	// follower on the first failed write (-promote). Without it only the
	// failure detector promotes a shard.
	Promote bool
	// Advertise is the URL peers reach this node at (-advertise, ""
	// means http://<listen addr>).
	Advertise string
	// AutoFailover arms the lease-based failure detector (-auto-failover,
	// DESIGN.md §15); LeaseTTL (-lease-ttl), HeartbeatEvery
	// (-heartbeat-every), AckQuorum (-ack-quorum) and Peers (-peers) tune
	// it and the write gate.
	AutoFailover   bool
	LeaseTTL       time.Duration
	HeartbeatEvery time.Duration
	AckQuorum      int
	Peers          []string
}

// Node is one running daemon. Create with Start, stop with Stop.
type Node struct {
	// URL is the base URL the node serves on (http://<listen addr>).
	URL string

	cfg     Config
	store   history.Storage
	follow  string // the primary this node follows; "" on a primary
	repl    *replica.Node
	fol     *replica.Follower
	det     *replica.Detector
	srv     *server.Server
	ln      net.Listener
	httpSrv *http.Server
	errc    chan error
	stopped bool
}

// Start opens the store (running crash recovery), settles the node's
// replication role, and serves on cfg.Addr. A primary revived under
// auto-failover first asks its last known followers and cfg.Peers for
// a newer epoch and, finding one, starts as a follower of the winner
// instead; a follower mirrors its primary's shard layout.
func Start(cfg Config) (*Node, error) {
	switch {
	case cfg.Store == "":
		return nil, errors.New("node: a store directory is required")
	case cfg.Follow != "" && cfg.Replicas > 0:
		return nil, errors.New("node: -follow and -replicas are mutually exclusive (a node is primary or follower)")
	case (cfg.Follow != "" || cfg.Replicas > 0) && !cfg.WAL:
		return nil, errors.New("node: replication ships the write-ahead journal; -wal must stay on")
	case cfg.AutoFailover && cfg.Follow == "" && cfg.Replicas == 0:
		return nil, errors.New("node: -auto-failover needs a replication role (-replicas or -follow)")
	case cfg.Server.Replication != nil || cfg.Server.WriteGate != nil:
		return nil, errors.New("node: Server.Replication and Server.WriteGate are set by the node's role, not by the caller")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	n := &Node{cfg: cfg, follow: cfg.Follow, repl: &replica.Node{Advertise: cfg.Advertise}}

	// The startup rejoin handshake (DESIGN.md §15): a primary revived
	// under auto-failover interrogates its last known followers BEFORE
	// serving. If any claims a newer epoch, a promotion happened while
	// this node was down — it is a zombie, and it demotes itself into a
	// follower of the winner instead of splitting the brain.
	rejoined := false
	if cfg.AutoFailover && cfg.Replicas > 0 {
		if winner, theirs, ours := supersededBy(cfg.Store, cfg.Peers, cfg.Advertise); winner != "" {
			log.Printf("rejoin: %s owns epoch %d, ours is %d; demoting to follower", winner, theirs, ours)
			n.follow, rejoined = winner, true
		}
	}
	shards, peerReplicas := cfg.Shards, 0
	if n.follow != "" {
		// The layout handshake: a follower mirrors the primary's shard
		// count, so its store can fold each shard's journal one to one.
		info, err := primaryInfo(n.follow, 30*time.Second)
		if err != nil {
			return nil, err
		}
		if info.Role != "primary" {
			return nil, fmt.Errorf("node: -follow %s: node is %q, not a primary", n.follow, info.Role)
		}
		if shards == 0 && info.Shards > 1 {
			shards = info.Shards
		}
		peerReplicas = info.Replicas
	}

	st, err := history.OpenStoreAuto(cfg.Store, shards, history.DurableOptions{
		Create:           cfg.Create,
		WAL:              cfg.WAL,
		WALOptions:       history.WALOptions{Sync: cfg.WALSync},
		Wrap:             cfg.Wrap,
		WrapShard:        cfg.WrapShard,
		Replicas:         cfg.Replicas,
		BreakerThreshold: cfg.BreakerThreshold,
	})
	if err != nil {
		return nil, err
	}
	n.store = st
	logRecovery(st)
	if n.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		n.abort()
		return nil, err
	}
	n.URL = "http://" + n.ln.Addr().String()
	if n.repl.Advertise == "" {
		n.repl.Advertise = n.URL
	}

	// Replication roles. A primary hooks every shard journal's append
	// stream and gates acknowledged writes on follower progress; a
	// follower pulls those streams into its own store and refuses public
	// writes for shards it has not been promoted on. Under auto-failover
	// a follower additionally carries a dormant standby primary — the
	// moment the failure detector wins its election, the standby starts
	// serving this node's journal to the rest of the cluster.
	serveSt := st
	opts := cfg.Server
	switch {
	case n.follow == "" && cfg.Replicas > 0:
		if _, serveSt, err = n.armPrimary(cfg.Replicas); err != nil {
			n.abort()
			return nil, err
		}
		if n.det != nil {
			n.det.Start()
		}
	case n.follow != "":
		if n.fol, err = replica.NewFollower(n.follow, n.repl.Advertise, st); err != nil {
			n.abort()
			return nil, err
		}
		if rejoined {
			if err := n.fol.Rejoin(n.follow); err != nil {
				n.abort()
				return nil, err
			}
		}
		n.repl.Follower = n.fol
		opts.WriteGate = n.fol.Writable
		if cfg.AutoFailover {
			standbyN := max(peerReplicas, 1)
			// The standby's gate is inert until promotion: public writes
			// are refused by the follower's write gate first, and the
			// standby degrades to async until its own first follower
			// attaches.
			standby, gated, err := n.armPrimary(standbyN)
			if err != nil {
				n.abort()
				return nil, err
			}
			serveSt = gated
			n.fol.SetAutoFailover(replica.AutoConfig{
				LeaseTTL:       cfg.LeaseTTL,
				HeartbeatEvery: cfg.HeartbeatEvery,
				Peers:          cfg.Peers,
				Replicas:       standbyN,
				OnPromote: func(epoch uint64) {
					// Flip the standby to the won generation and start
					// fencing rival epochs — this node is the primary now.
					standby.SetEpochs(epoch)
					n.det.Start()
					log.Printf("failover: self-promoted under epoch %d", epoch)
				},
			})
		}
		n.fol.Start()
	}
	if n.repl.Primary != nil || n.repl.Follower != nil {
		opts.Replication = n.repl
	}

	n.srv = server.New(harness.NewEnv(serveSt), opts)
	if err := n.srv.EnableSessionJournal(filepath.Join(st.Dir(), server.SessionsDirName), cfg.CheckpointEvery); err != nil {
		n.abort()
		return nil, err
	}
	n.httpSrv = &http.Server{Handler: n.srv.Handler()}
	n.errc = make(chan error, 1)
	go func() { n.errc <- n.httpSrv.Serve(n.ln) }()

	// Resume crash-orphaned sessions in the background: the node serves
	// immediately, and a client resending its idempotency key right now
	// simply waits on the same journal claim instead of racing the
	// resume.
	if cfg.ResumeSessions {
		go func() {
			resumed, err := n.srv.ResumeSessions(context.Background())
			if err != nil {
				log.Printf("session resume: %v", err)
			}
			if resumed > 0 {
				log.Printf("resumed %d crash-orphaned diagnosis sessions", resumed)
			}
		}()
	}
	return n, nil
}

// armPrimary builds the replication source over the node's store — the
// primary role, or the dormant standby of an auto-failover follower —
// and returns it with the gated storage the server writes through.
// Under auto-failover it also builds the (unstarted) detector, armed
// with the shard-failover check on a sharded layout.
func (n *Node) armPrimary(replicas int) (*replica.Primary, history.Storage, error) {
	prim, err := replica.NewPrimary(n.store, replicas)
	if err != nil {
		return nil, nil, err
	}
	prim.SetQuorum(n.cfg.AckQuorum)
	prim.SetLeaseTTL(n.cfg.LeaseTTL)
	prim.SetPeersPath(replica.PeersFilePath(n.store.Dir()))
	dcfg := replica.DetectorConfig{
		Advertise: n.repl.Advertise,
		LeaseTTL:  n.cfg.LeaseTTL,
		Every:     n.cfg.HeartbeatEvery,
		Peers:     n.cfg.Peers,
	}
	if ss, ok := n.store.(*history.ShardedStore); ok {
		ss.SetFailover(replica.NewFailover(prim), n.cfg.Promote)
		dcfg.ShardHealth = ss.ShardStats
		dcfg.PromoteShard = ss.FailoverPromote
	}
	if n.cfg.AutoFailover {
		n.det = replica.NewDetector(prim, dcfg)
	}
	n.repl.Primary = prim
	return prim, replica.Gate(n.store, prim), nil
}

// Err delivers the listener's error if serving stops before Stop.
func (n *Node) Err() <-chan error { return n.errc }

// Summary describes the running node for its startup line: store,
// layout, replication role, size and session slots.
func (n *Node) Summary() string {
	layout := ""
	if ss, ok := n.store.(*history.ShardedStore); ok {
		layout = fmt.Sprintf(", %d shards", ss.Shards())
	}
	role := ""
	switch {
	case n.fol != nil:
		role = ", follower of " + n.follow
	case n.repl.Primary != nil:
		role = fmt.Sprintf(", primary of %d replicas", n.cfg.Replicas)
	}
	if n.cfg.AutoFailover {
		role += ", auto-failover"
	}
	slots := n.cfg.Server.Sessions
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return fmt.Sprintf("store %s%s%s, %d records, %d session slots", n.store.Dir(), layout, role, n.store.Len(), slots)
}

// Stop drains and shuts the node down: new diagnoses are refused, the
// streaming intake closes (leftover streams are discarded — clients
// resume by restarting the run), in-flight sessions finish within the
// drain timeout, the listener closes, replication stops, and the
// journal is forced to disk before the store closes — so an interval
// or none sync policy cannot leave the tail of a clean drain exposed
// to power loss. Every step runs even if an earlier one failed; the
// errors come back joined. Idempotent, from one goroutine.
func (n *Node) Stop() error {
	if n.stopped {
		return nil
	}
	n.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.DrainTimeout)
	defer cancel()
	var errs []error
	if err := n.srv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("drain incomplete: %w", err))
	}
	if err := n.httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		errs = append(errs, fmt.Errorf("shutdown: %w", err))
	}
	n.stopReplication()
	if err := n.store.SyncWAL(); err != nil {
		errs = append(errs, fmt.Errorf("final wal sync: %w", err))
	}
	if err := n.store.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store close: %w", err))
	}
	return errors.Join(errs...)
}

func (n *Node) stopReplication() {
	if n.det != nil {
		n.det.Stop()
	}
	if n.fol != nil {
		n.fol.Stop()
	}
}

// abort unwinds a Start that failed part-way.
func (n *Node) abort() {
	n.stopReplication()
	if n.ln != nil {
		n.ln.Close()
	}
	n.store.Close()
}

// logRecovery reports what opening the store had to repair.
func logRecovery(st history.Storage) {
	if rep := st.Recovery(); rep != nil && !rep.Empty() {
		for _, sr := range rep.Shards {
			if sr.Err != "" {
				log.Printf("recovery: shard %02d down: %s (its keyspace is absent until a probe revives it)", sr.Shard, sr.Err)
			}
		}
		for _, name := range rep.SweptTemp {
			log.Printf("recovery: swept orphaned temp file %s", name)
		}
		for _, q := range rep.Quarantined {
			log.Printf("recovery: quarantined %s (%s)", q.Name, q.Reason)
		}
		if w := rep.WAL; w != nil && !w.Empty() {
			log.Printf("recovery: wal replayed %d of %d journaled entries (torn tail: %v)",
				w.Replayed, w.Entries, w.TornTail)
			for _, c := range w.Corrupt {
				log.Printf("recovery: wal corrupt frame: %s", c)
			}
		}
		log.Printf("recovery: %d temp files swept, %d records quarantined under %s/%s",
			len(rep.SweptTemp), len(rep.Quarantined), st.Dir(), history.QuarantineDir)
	}
	for _, issue := range st.ScanIssues() {
		log.Printf("warning: skipped %s", issue)
	}
}

// maxDiskEpoch reads the store's journal epoch(s) straight from disk —
// before the store is opened, so before StartWAL bumps the generation.
// A sharded layout reports the max across shards; a missing journal
// reads as zero.
func maxDiskEpoch(storeDir string) uint64 {
	shardsDir := filepath.Join(storeDir, history.ShardsDirName)
	if des, err := os.ReadDir(shardsDir); err == nil {
		var max uint64
		for _, de := range des {
			if !de.IsDir() {
				continue
			}
			if e, err := history.JournalEpoch(filepath.Join(shardsDir, de.Name())); err == nil && e > max {
				max = e
			}
		}
		return max
	}
	e, _ := history.JournalEpoch(storeDir)
	return e
}

// supersededBy probes the persisted follower registry (PEERS.json) plus
// peers for a node claiming a strictly newer epoch than this store's
// on-disk journal generation. A hit means a promotion happened while
// this primary was down: it returns the winner's URL and the two
// epochs, and the caller demotes instead of serving writes.
func supersededBy(storeDir string, peers []string, self string) (winner string, theirs, ours uint64) {
	ours = maxDiskEpoch(storeDir)
	seen := make(map[string]bool)
	for _, peer := range append(replica.LoadPeers(replica.PeersFilePath(storeDir)), peers...) {
		if peer == "" || peer == self || seen[peer] {
			continue
		}
		seen[peer] = true
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		info, err := replica.FetchInfo(ctx, http.DefaultClient, peer)
		cancel()
		if err != nil {
			continue
		}
		if (info.Role == "primary" || info.Promoted) && info.Epoch > ours && info.Epoch > theirs {
			winner, theirs = peer, info.Epoch
		}
	}
	return winner, theirs, ours
}

// primaryInfo fetches the primary's layout handshake, retrying while
// the primary is still coming up (a follower is typically started
// seconds after — or concurrently with — its primary).
func primaryInfo(base string, patience time.Duration) (replica.InfoResponse, error) {
	deadline := time.Now().Add(patience)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		info, err := replica.FetchInfo(ctx, http.DefaultClient, base)
		cancel()
		if err == nil {
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("node: primary %s unreachable: %w", base, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}
