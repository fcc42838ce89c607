package scaler

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBackoffDelay(t *testing.T) {
	cases := map[int]time.Duration{
		1:  time.Second,
		2:  2 * time.Second,
		3:  4 * time.Second,
		5:  16 * time.Second,
		6:  30 * time.Second, // capped
		99: 30 * time.Second,
	}
	for retry, want := range cases {
		if got := backoff(retry); got != want {
			t.Errorf("backoff(%d) = %v, want %v", retry, got, want)
		}
	}
}

func TestApplierRetriesThenSucceeds(t *testing.T) {
	calls := 0
	a := &Applier{
		Apply: func(n int) error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		},
		Attempts: 3,
	}
	if err := a.ScaleTo(4); err != nil {
		t.Fatalf("retry path should succeed: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestApplierExhaustsAndBreakerOpens(t *testing.T) {
	br := &Breaker{Threshold: 2, Cooldown: 3}
	calls := 0
	a := &Applier{
		Apply:    func(int) error { calls++; return errors.New("down") },
		Attempts: 2,
		Breaker:  br,
	}
	if err := a.ScaleTo(3); err == nil {
		t.Fatal("exhausted retries should error")
	}
	if br.State() != BreakerClosed {
		t.Fatalf("one failed round, breaker = %v", br.State())
	}
	if err := a.ScaleTo(3); err == nil {
		t.Fatal("second round should also fail")
	}
	if br.State() != BreakerOpen {
		t.Fatalf("threshold reached, breaker = %v", br.State())
	}

	// Open breaker: the next two actions are refused before touching the
	// control plane; each is one tick of the 3-tick cooldown.
	before := calls
	for i := 0; i < 2; i++ {
		if err := a.ScaleTo(3); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("action %d in the cooldown: err = %v, want ErrBreakerOpen", i, err)
		}
	}
	if calls != before {
		t.Error("open breaker still called apply")
	}

	// The third tick ends the cooldown: a half-open probe goes through and
	// its success closes the breaker.
	a.Apply = func(int) error { calls++; return nil }
	if err := a.ScaleTo(3); err != nil {
		t.Fatalf("half-open probe should succeed: %v", err)
	}
	if br.State() != BreakerClosed {
		t.Errorf("successful probe should close, state = %v", br.State())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	br := &Breaker{Threshold: 1, Cooldown: 2}
	if !br.Failure() || br.State() != BreakerOpen {
		t.Fatalf("state = %v", br.State())
	}
	if br.Tick() != BreakerOpen {
		t.Error("the first of two cooldown ticks should keep it open")
	}
	if br.Success(); br.Failure() || br.State() != BreakerOpen {
		t.Error("an open breaker should ignore Success and Failure")
	}
	if br.Tick() != BreakerHalfOpen {
		t.Fatalf("state = %v after the cooldown, want half-open", br.State())
	}
	if !br.Failure() || br.State() != BreakerOpen || br.Trips() != 2 {
		t.Errorf("failed probe should reopen, state = %v, trips = %d", br.State(), br.Trips())
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines; run
// under -race it proves the state machine is data-race free, and the
// final state must still be a valid one.
func TestBreakerConcurrent(t *testing.T) {
	br := &Breaker{Threshold: 3, Cooldown: 2}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if br.Tick() != BreakerOpen {
					if (g+i)%3 == 0 {
						br.Failure()
					} else {
						br.Success()
					}
				}
				_ = br.State()
			}
		}(g)
	}
	wg.Wait()
	switch br.State() {
	case BreakerClosed, BreakerOpen, BreakerHalfOpen:
	default:
		t.Errorf("invalid final state %v", br.State())
	}
}

// TestBreakerConcurrentReaders drives one breaker through every
// transition — closed with a growing streak, open, the cooldown, a
// failed probe, a successful one — while another goroutine polls State
// and Trips. The driving goroutine must see exactly the sequential
// machine's positions, the reader only valid states and a trip count
// that never falls; under -race it also proves the lock-free reads of a
// clean breaker race with no transition.
func TestBreakerConcurrentReaders(t *testing.T) {
	br := &Breaker{Threshold: 2, Cooldown: 2}
	done := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		var last int64
		for {
			select {
			case <-done:
				read <- nil
				return
			default:
			}
			if s := br.State(); s != BreakerClosed && s != BreakerOpen && s != BreakerHalfOpen {
				read <- fmt.Errorf("reader saw state %v", s)
				return
			}
			trips := br.Trips()
			if trips < last {
				read <- fmt.Errorf("trips fell from %d to %d", last, trips)
				return
			}
			last = trips
		}
	}()
	want := func(step string, got, want BreakerState) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: state %v, want %v", step, got, want)
		}
	}
	const cycles = 500
	for i := 0; i < cycles; i++ {
		want("clean tick", br.Tick(), BreakerClosed)
		br.Success()
		if br.Failure() {
			t.Fatal("the first failure of two opened the breaker")
		}
		want("tick on a streak", br.Tick(), BreakerClosed)
		if !br.Failure() {
			t.Fatal("the second failure did not open the breaker")
		}
		want("open", br.State(), BreakerOpen)
		br.Success()
		want("success while open", br.State(), BreakerOpen)
		want("first cooldown tick", br.Tick(), BreakerOpen)
		want("last cooldown tick", br.Tick(), BreakerHalfOpen)
		if !br.Failure() {
			t.Fatal("a failed probe did not reopen the breaker")
		}
		want("failed probe", br.State(), BreakerOpen)
		br.Tick()
		want("cooldown again", br.Tick(), BreakerHalfOpen)
		br.Success()
		want("successful probe", br.State(), BreakerClosed)
	}
	close(done)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if got := br.Trips(); got != 2*cycles {
		t.Errorf("trips = %d, want %d", got, 2*cycles)
	}
}

// TestApplierConcurrent drives one Applier+Breaker from many goroutines,
// as a daemon with overlapping apply paths would; -race is the assertion.
func TestApplierConcurrent(t *testing.T) {
	var mu sync.Mutex
	fleet := 1
	a := &Applier{
		Apply: func(n int) error {
			mu.Lock()
			defer mu.Unlock()
			if n%5 == 0 {
				return fmt.Errorf("rejected %d", n)
			}
			fleet = n
			return nil
		},
		Attempts: 2,
		Breaker:  &Breaker{Threshold: 4, Cooldown: 2},
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				_ = a.ScaleTo(g + i)
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if fleet < 1 {
		t.Errorf("fleet = %d", fleet)
	}
}
