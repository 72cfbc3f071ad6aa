package sim

import (
	"testing"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	if err := e.Schedule(20, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(10, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(30, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	if n := e.RunAll(); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order=%v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now=%d", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.Schedule(5, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestNegativeDelayRejected(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(-1, func() {}); err == nil {
		t.Fatal("accepted negative delay")
	}
	if err := e.At(-5, func() {}); err == nil {
		t.Fatal("accepted past time")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []int64
	for _, at := range []int64{5, 10, 15, 20} {
		at := at
		if err := e.At(at, func() { ran = append(ran, at) }); err != nil {
			t.Fatal(err)
		}
	}
	n := e.Run(12)
	if n != 2 {
		t.Fatalf("Run(12) executed %d events", n)
	}
	if e.Now() != 12 {
		t.Fatalf("now=%d want 12 after Run(12)", e.Now())
	}
	if len(e.pq) != 2 {
		t.Fatalf("pending=%d", len(e.pq))
	}
	e.RunAll()
	if len(ran) != 4 || e.ran != 4 {
		t.Fatalf("ran=%v total=%d", ran, e.ran)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []int64
	if err := e.Schedule(10, func() {
		hits = append(hits, e.Now())
		if err := e.Schedule(5, func() { hits = append(hits, e.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits=%v", hits)
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestChurnValidation(t *testing.T) {
	e := NewEngine()
	noop := func(int64) {}
	if err := Churn(e, ChurnConfig{MeanInterarrival: 0, MeanLifetime: 1, Arrivals: 1}, noop, noop); err == nil {
		t.Fatal("accepted zero interarrival")
	}
	if err := Churn(e, ChurnConfig{MeanInterarrival: 1, MeanLifetime: 0, Arrivals: 1}, noop, noop); err == nil {
		t.Fatal("accepted zero lifetime")
	}
	if err := Churn(e, ChurnConfig{MeanInterarrival: 1, MeanLifetime: 1, Arrivals: 0}, noop, noop); err == nil {
		t.Fatal("accepted zero arrivals")
	}
}

func TestChurnJoinLeaveBalance(t *testing.T) {
	e := NewEngine()
	joins, leaves := 0, 0
	alive := map[int64]bool{}
	err := Churn(e, ChurnConfig{MeanInterarrival: 100, MeanLifetime: 500, Arrivals: 200, Seed: 4},
		func(id int64) {
			joins++
			if alive[id] {
				t.Errorf("peer %d joined twice", id)
			}
			alive[id] = true
		},
		func(id int64) {
			leaves++
			if !alive[id] {
				t.Errorf("peer %d left without joining", id)
			}
			delete(alive, id)
		})
	if err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if joins != 200 {
		t.Fatalf("joins=%d want 200", joins)
	}
	if leaves != 200 {
		t.Fatalf("leaves=%d want 200", leaves)
	}
	if len(alive) != 0 {
		t.Fatalf("%d peers still alive after drain", len(alive))
	}
}

func TestChurnDeterminism(t *testing.T) {
	runOnce := func() []int64 {
		e := NewEngine()
		var times []int64
		_ = Churn(e, ChurnConfig{MeanInterarrival: 50, MeanLifetime: 200, Arrivals: 50, Seed: 7},
			func(id int64) { times = append(times, e.Now()) },
			func(id int64) {})
		e.RunAll()
		return times
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("different arrival counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different arrival times")
		}
	}
}
