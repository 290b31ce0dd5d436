// Distributed deployment: run a real AsyncFilter-guarded aggregation
// server and twelve federated clients (three of them malicious) as
// separate goroutines talking the binary frame protocol over loopback TCP —
// the same server code the aflserver command deploys across machines.
//
// With -checkpoint the server persists its state; adding -kill-at N turns
// the run into a crash-recovery demo: the server is killed after N
// rounds, a replacement is restored from the checkpoint on the same
// address mid-deployment (clients ride out the outage on their reconnect
// budgets), and the deployment finishes with filter history intact.
//
//	go run ./examples/distributed
//	go run ./examples/distributed -checkpoint /tmp/afl.ckpt -kill-at 3
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	asyncfilter "github.com/asyncfl/asyncfilter"
)

const (
	numClients   = 12
	numMalicious = 3
	rounds       = 6
)

func newServer(params []float64, ckptPath, obsvAddr string) (*asyncfilter.Server, error) {
	// Each server instance gets a fresh filter: after a kill, the
	// replacement's filter history comes from the checkpoint, not from
	// shared memory.
	filter, err := asyncfilter.NewFilter(asyncfilter.FilterConfig{Seed: 1})
	if err != nil {
		return nil, err
	}
	// Production-style hardening: clients silent for a minute are
	// disconnected, no message may exceed 64MB, and a round stuck below
	// the aggregation goal for 30s aggregates whatever is buffered.
	// Overload resilience: at most 24 updates may queue (stalest are shed
	// first beyond that), each client is paced to 50 updates/s with a
	// burst of 5, clients silent for 30s lose their lease (heartbeats
	// renew it), and a client rejected by the filter 4 times in a row is
	// quarantined until a half-open probe clears it.
	return asyncfilter.NewServer(asyncfilter.ServerConfig{
		InitialParams:      params,
		AggregationGoal:    6,
		StalenessLimit:     10,
		Rounds:             rounds,
		ReadTimeout:        time.Minute,
		WriteTimeout:       15 * time.Second,
		MaxMessageBytes:    64 << 20,
		RoundTimeout:       30 * time.Second,
		CheckpointPath:     ckptPath,
		CheckpointEvery:    1,
		MaxPendingUpdates:  24,
		ClientRateLimit:    50,
		ClientBurst:        5,
		LeaseDuration:      30 * time.Second,
		QuarantineAfter:    4,
		QuarantineCooldown: 5 * time.Second,
		ObsvAddr:           obsvAddr,
	}, filter)
}

func main() {
	ckptPath := flag.String("checkpoint", "", "checkpoint file for durable server state (\"\" disables)")
	killAt := flag.Int("kill-at", 0, "kill the server after this round and resume it from the checkpoint (0 disables; requires -checkpoint)")
	obsvAddr := flag.String("obsv-addr", "", "serve /metrics, /trace, /healthz and /debug/pprof on this address (\"\" disables)")
	flag.Parse()
	if *killAt > 0 && *ckptPath == "" {
		log.Fatal("-kill-at requires -checkpoint (remove any stale checkpoint file from earlier runs)")
	}
	if *killAt >= rounds {
		log.Fatalf("-kill-at %d must be below the %d-round deployment", *killAt, rounds)
	}

	spec, err := asyncfilter.ModelSpecFor(asyncfilter.MNIST)
	if err != nil {
		log.Fatal(err)
	}
	params, err := asyncfilter.InitialParams(spec)
	if err != nil {
		log.Fatal(err)
	}
	server, err := newServer(params, *ckptPath, *obsvAddr)
	if err != nil {
		log.Fatal(err)
	}
	if server.Restored() {
		fmt.Printf("restored from %s at round %d\n", *ckptPath, server.Version())
	}
	if a := server.ObsvAddr(); a != "" {
		fmt.Printf("introspection on http://%s\n", a)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr := lis.Addr().String()
	go func() {
		if err := server.Serve(lis); err != nil {
			log.Println("serve:", err)
		}
	}()
	fmt.Printf("server listening on %s (%d rounds, aggregation goal 6)\n", addr, rounds)

	train, test, err := asyncfilter.GenerateData(asyncfilter.MNIST, 1)
	if err != nil {
		log.Fatal(err)
	}
	parts, err := train.PartitionDirichlet(numClients, 150, 0.1, 2)
	if err != nil {
		log.Fatal(err)
	}
	trainSpec, err := asyncfilter.TrainSpecFor(asyncfilter.MNIST)
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		// Clients ride out transient connection faults — and, in the
		// kill-and-resume demo, the server outage itself — on a budget of
		// consecutive failures with jittered backoff.
		opts := asyncfilter.ClientOptions{
			ID:                i,
			Data:              parts[i],
			Model:             spec,
			Train:             trainSpec,
			Seed:              int64(i),
			MaxRetries:        30,
			RetryBaseDelay:    100 * time.Millisecond,
			RetryMaxDelay:     2 * time.Second,
			DialTimeout:       5 * time.Second,
			HeartbeatInterval: 5 * time.Second,
		}
		if i < numMalicious {
			opts.Attack = asyncfilter.AttackGD
			fmt.Printf("client %2d: MALICIOUS (gd attack)\n", i)
		} else {
			fmt.Printf("client %2d: honest (%d local samples)\n", i, parts[i].Len())
		}
		client, err := asyncfilter.NewClient(opts)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Connection errors at shutdown are expected: the server
			// closes sockets once training completes.
			_ = client.Run(addr)
		}()
	}

	if *killAt > 0 {
		// Tight poll: loopback rounds complete in milliseconds, and the
		// kill must land mid-deployment to demonstrate recovery.
		for server.Version() < *killAt {
			time.Sleep(time.Millisecond)
		}
		fmt.Printf("\nKILLING server at round %d (checkpoint: %s)\n", server.Version(), *ckptPath)
		if err := server.Close(); err != nil {
			log.Println("close:", err)
		}
		// Restore a replacement from the checkpoint on the same address
		// while the clients keep retrying.
		replacement, err := newServer(params, *ckptPath, *obsvAddr)
		if err != nil {
			log.Fatal("restore:", err)
		}
		if !replacement.Restored() {
			log.Fatal("replacement server found no checkpoint to restore")
		}
		lis, err = net.Listen("tcp", addr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("RESTORED server at round %d, resuming on %s\n", replacement.Version(), addr)
		server = replacement
		go func() {
			if err := server.Serve(lis); err != nil {
				log.Println("serve:", err)
			}
		}()
	}

	<-server.Done()
	final := server.FinalParams()
	if err := server.Close(); err != nil {
		log.Println("close:", err)
	}
	wg.Wait()

	acc, loss, err := asyncfilter.EvaluateParams(final, spec, test)
	if err != nil {
		log.Fatal(err)
	}
	stats := server.Stats()
	fmt.Printf("\ncompleted %d rounds; final accuracy %.2f%% (test loss %.4f)\n",
		server.Version(), 100*acc, loss)
	fmt.Printf("server stats: %d updates from %d clients (%d accepted, %d rejected, %d reconnects, %d watchdog rounds, %d checkpoints)\n",
		stats.UpdatesReceived, stats.ClientsConnected, stats.Accepted, stats.Rejected, stats.Reconnects, stats.WatchdogRounds, stats.Checkpoints)
	fmt.Printf("overload stats: %d shed, %d rate-limited, %d quarantined updates (%d quarantine entries, %d expired leases, %d heartbeats)\n",
		stats.DroppedShed, stats.DroppedRateLimited, stats.DroppedQuarantined, stats.QuarantinedClients, stats.ExpiredLeases, stats.Heartbeats)
}
