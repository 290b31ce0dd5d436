// Command aflclient joins an aflserver deployment as one federated
// learning client, optionally acting maliciously.
//
// Usage:
//
//	aflclient -server 127.0.0.1:9000 -dataset mnist -id 3
//	aflclient -server 127.0.0.1:9000 -dataset mnist -id 7 -attack gd
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	asyncfilter "github.com/asyncfl/asyncfilter"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aflclient:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aflclient", flag.ContinueOnError)
	var (
		server = fs.String("server", "127.0.0.1:9000", "server address")
		preset = fs.String("dataset", asyncfilter.MNIST, "dataset preset (must match the server)")
		id     = fs.Int("id", 0, "client id (unique per deployment)")
		total  = fs.Int("population", 100, "total client population (for partitioning)")
		size   = fs.Int("partition", 200, "local partition size")
		alpha  = fs.Float64("alpha", 0.1, "Dirichlet concentration (<= 0 for IID)")
		atk    = fs.String("attack", "", "act maliciously: gd, lie, minmax or minsum")
		seed   = fs.Int64("seed", 1, "data seed (must match the server's dataset seed)")

		retries     = fs.Int("max-retries", 10, "consecutive failed connection attempts before giving up")
		retryBase   = fs.Duration("retry-base", 200*time.Millisecond, "initial reconnect backoff (doubles per attempt, jittered)")
		retryMax    = fs.Duration("retry-max", 10*time.Second, "reconnect backoff cap")
		dialTimeout = fs.Duration("dial-timeout", 10*time.Second, "per-connection dial timeout (0 disables)")
		heartbeat   = fs.Duration("heartbeat", 0, "keepalive heartbeat interval, well below the server's -lease (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id < 0 || *id >= *total {
		return fmt.Errorf("id %d out of [0, %d)", *id, *total)
	}

	train, _, err := asyncfilter.GenerateData(*preset, *seed)
	if err != nil {
		return err
	}
	parts, err := train.PartitionDirichlet(*total, *size, *alpha, *seed)
	if err != nil {
		return err
	}
	spec, err := asyncfilter.ModelSpecFor(*preset)
	if err != nil {
		return err
	}
	spec.Seed = *seed
	trainSpec, err := asyncfilter.TrainSpecFor(*preset)
	if err != nil {
		return err
	}

	client, err := asyncfilter.NewClient(asyncfilter.ClientOptions{
		ID:                *id,
		Data:              parts[*id],
		Model:             spec,
		Train:             trainSpec,
		Attack:            *atk,
		Seed:              *seed,
		MaxRetries:        *retries,
		RetryBaseDelay:    *retryBase,
		RetryMaxDelay:     *retryMax,
		DialTimeout:       *dialTimeout,
		HeartbeatInterval: *heartbeat,
	})
	if err != nil {
		return err
	}
	role := "honest"
	if *atk != "" {
		role = "malicious (" + *atk + ")"
	}
	fmt.Printf("aflclient %d: joining %s as %s client (%d local samples)\n", *id, *server, role, parts[*id].Len())
	if err := client.Run(*server); err != nil {
		// A drain Goodbye is the server's graceful-shutdown path, not a
		// client failure: exit clean so supervisors don't restart us into
		// a closed port.
		if errors.Is(err, asyncfilter.ErrServerGoodbye) {
			fmt.Printf("aflclient %d: server is draining, exiting\n", *id)
			return nil
		}
		return err
	}
	fmt.Printf("aflclient %d: server signalled completion\n", *id)
	return nil
}
