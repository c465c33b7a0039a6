package serving

import (
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cadmc/internal/tensor"
)

// TestStressManyClientsOneServer hammers a single server with many
// concurrent persistent clients mixing good and bad requests, while polling
// Stats, then checks the server's books balance exactly. Run under -race
// (scripts/check.sh always does) this exercises every mutex in the serving
// layer at once.
func TestStressManyClientsOneServer(t *testing.T) {
	model := testNet(t, 20)
	srv := NewServer()
	if err := srv.Register("m", model); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := lis.Addr().String()
	act, err := model.ForwardRange(tensor.Randn(rand.New(rand.NewSource(21)), 1, 3, 12, 12), 0, 3)
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients  = 16
		requests = 25
	)
	var (
		wg         sync.WaitGroup
		wantServed atomic.Int64
		wantFailed atomic.Int64
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := dialPlain(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			for i := 0; i < requests; i++ {
				// Interleave Stats polls with the request traffic.
				if i%7 == 0 {
					srv.Stats()
				}
				// Mix good requests with bad cuts so the served and failed
				// counters both move concurrently.
				if (w+i)%5 == 0 {
					if _, err := client.Offload("m", 99, act); err == nil {
						t.Error("out-of-range cut must fail")
						return
					}
					wantFailed.Add(1)
					continue
				}
				logits, err := client.Offload("m", 2, act)
				if err != nil {
					t.Errorf("client %d request %d: %v", w, i, err)
					return
				}
				if len(logits) != 5 {
					t.Errorf("client %d got %d logits, want 5", w, len(logits))
					return
				}
				wantServed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	served, failed := srv.Stats()
	if served != wantServed.Load() || failed != wantFailed.Load() {
		t.Fatalf("stats = %d served / %d failed, want %d / %d",
			served, failed, wantServed.Load(), wantFailed.Load())
	}
}

// TestStressServeCloseCycles opens and tears down servers while clients are
// mid-flight — the Serve/Close interplay that once let a handler escape the
// WaitGroup. Close must never return while a handler it is responsible for
// still runs, and Serve must exit nil on every orderly shutdown.
func TestStressServeCloseCycles(t *testing.T) {
	model := testNet(t, 22)
	act, err := model.ForwardRange(tensor.Randn(rand.New(rand.NewSource(23)), 1, 3, 12, 12), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 20; cycle++ {
		srv := NewServer()
		if err := srv.Register("m", model); err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(lis) }()

		// One priming round trip proves Serve is accepting before Close
		// races it; without it Close can win and Serve reports a
		// closed-before-start error by design.
		prime, err := dialPlain(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prime.Offload("m", 2, act); err != nil {
			t.Fatalf("cycle %d priming request: %v", cycle, err)
		}

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client, err := dialPlain(lis.Addr().String())
				if err != nil {
					return // the server may already be closing
				}
				defer client.Close()
				for i := 0; i < 50; i++ {
					if _, err := client.Offload("m", 2, act); err != nil {
						// Mid-flight shutdown surfaces as a connection
						// error; anything model-shaped is a real bug.
						if strings.Contains(err.Error(), "unknown model") {
							t.Errorf("cycle %d: %v", cycle, err)
						}
						return
					}
				}
			}()
		}
		_ = prime.Close()
		// Close while requests are in flight.
		if err := srv.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
		if err := <-serveDone; err != nil {
			t.Fatalf("cycle %d serve: %v", cycle, err)
		}
		// Closing twice stays a no-op even after a racy shutdown.
		if err := srv.Close(); err != nil {
			t.Fatalf("cycle %d second close: %v", cycle, err)
		}
		wg.Wait()
	}
}
