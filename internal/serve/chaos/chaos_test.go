package chaos_test

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/chaos"
	"repro/internal/serve/client"
)

var bg = context.Background()

func startServer(t *testing.T, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "chaos.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Stop()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Stop, want nil", err)
		}
	})
	return srv, sock
}

// TestChaosSwarm is the chaos gate (`make chaos-smoke`; also run with
// -race by `make check`): a daemon with production-style limits serves
// a population of rogues and well-behaved clients at once. It must stay
// live — every well-behaved request succeeds (retries absorb shedding),
// every rogue sees the defensive reaction it provokes, the final health
// probe answers ready, and the resilience counters reconcile with the
// injected fault schedule.
func TestChaosSwarm(t *testing.T) {
	srv, sock := startServer(t, serve.Options{
		MaxConns:       64,
		MaxInFlight:    4,
		ReadTimeout:    150 * time.Millisecond,
		WriteTimeout:   2 * time.Second,
		HandlerTimeout: 60 * time.Millisecond,
		EnableTestOps:  true,
	})
	// Warm one small topology (all pairs, so any random pair routes)
	// for the good clients' route traffic.
	topo, err := srv.LoadTopology(serve.TopoParams{Topo: "small", K: 4})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	rogues := []chaos.Rogue{
		&chaos.SlowLoris{ByteEvery: 20 * time.Millisecond},
		&chaos.MidFrameDisconnect{Conns: 4, Seed: 11},
		&chaos.GarbageFlood{Frames: 25, Seed: 12},
		&chaos.DeadlineExceeder{Requests: 3, SleepMS: 250},
		&chaos.CrashInjector{Crashes: 2},
	}
	rep := chaos.RunSwarm(ctx, chaos.SwarmConfig{
		Network: "unix", Addr: sock,
		Rogues:       rogues,
		GoodClients:  4,
		GoodRequests: 40,
		TopoKey:      topo.Key,
		Switches:     topo.Switches,
		Seed:         1,
		Retry: client.RetryPolicy{
			MaxAttempts: 12, BaseDelay: 5 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 9,
		},
	})
	for _, e := range rep.RogueErrors {
		t.Errorf("rogue: %s", e)
	}
	for _, e := range rep.GoodErrors {
		t.Errorf("good client: %s", e)
	}
	if want := int64(4 * 40); rep.GoodResponses != want {
		t.Errorf("good responses %d, want %d", rep.GoodResponses, want)
	}

	// The daemon is still ready and its counters reconcile with the
	// schedule: exactly the injected panics, at least the observed
	// handler timeouts, and at least the slow-loris read-timeout cut.
	c, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Health(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Ready {
		t.Errorf("daemon not ready after the swarm: %+v", h)
	}
	if msg := chaos.Reconcile(h, rogues); msg != "" {
		t.Errorf("reconcile: %s", msg)
	}
	if msg := chaos.ExactPanics(h, rogues); msg != "" {
		t.Errorf("reconcile: %s", msg)
	}
	if h.IOTimeouts < 1 {
		t.Errorf("io_timeouts %d, want >= 1 (the slow loris)", h.IOTimeouts)
	}
	ack := rogues[4].(*chaos.CrashInjector).CrashesAcked
	if ack != 2 {
		t.Errorf("crash injector acked %d of 2", ack)
	}
	if got := srv.Counters().Panics; got != int64(ack) {
		t.Errorf("server panic counter %d != %d acked crashes", got, ack)
	}
}

// TestChaosFaultyGoodClient runs a well-behaved request stream over a
// fault-injecting connection (latency, fragmentation): correctness must
// survive arbitrarily chunked and delayed frames.
func TestChaosFaultyGoodClient(t *testing.T) {
	_, sock := startServer(t, serve.Options{EnableTestOps: true})
	raw, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(chaos.Wrap(raw, chaos.ConnConfig{
		Seed:       3,
		WriteChunk: 7,
		WriteDelay: time.Millisecond,
		ReadDelay:  time.Millisecond,
	}))
	defer c.Close()
	for i := 0; i < 20; i++ {
		h, err := c.Health(bg)
		if err != nil {
			t.Fatalf("op %d over faulty conn: %v", i, err)
		}
		if !h.Ready {
			t.Fatalf("op %d: %+v", i, h)
		}
	}
}

// TestChaosDroppedConn verifies the drop fault surfaces as a transport
// error on the client and leaves the server healthy.
func TestChaosDroppedConn(t *testing.T) {
	_, sock := startServer(t, serve.Options{})
	raw, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(chaos.Wrap(raw, chaos.ConnConfig{Seed: 5, DropAfterBytes: 50}))
	defer c.Close()
	var failed bool
	for i := 0; i < 5; i++ {
		if _, err := c.Stats(bg); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("connection dropping after 50 bytes never surfaced an error")
	}
	// The daemon itself is unharmed.
	c2, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if h, err := c2.Health(bg); err != nil || !h.Ready {
		t.Fatalf("daemon unhealthy after dropped conn: %+v, %v", h, err)
	}
}

// TestCrashInjectorRetriesShed pins the injector's retry contract
// deterministically: with the one in-flight slot held, its first
// test-crash is shed as overloaded; it backs off and resends on the same
// connection until the slot frees and the crash lands.
func TestCrashInjectorRetriesShed(t *testing.T) {
	srv, sock := startServer(t, serve.Options{MaxInFlight: 1, EnableTestOps: true})
	slow, err := client.Dial(bg, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slowDone := make(chan error, 1)
	go func() {
		_, err := slow.Do(bg, serve.Request{Op: serve.OpTestSleep, SleepMS: 150})
		slowDone <- err
	}()
	for srv.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	inj := &chaos.CrashInjector{Crashes: 1}
	if err := inj.Run(ctx, "unix", sock); err != nil {
		t.Fatal(err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request: %v", err)
	}
	if inj.Shed < 1 || inj.CrashesAcked != 1 {
		t.Fatalf("injector shed %d, acked %d; want shed >= 1, acked 1", inj.Shed, inj.CrashesAcked)
	}
	if got := srv.Counters().Panics; got != 1 {
		t.Fatalf("server panics %d, want 1", got)
	}
}
