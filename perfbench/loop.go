package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// lateAfter marks an open-loop request sent this long after its due time
// as late.
const lateAfter = time.Millisecond

// loopStats summarizes one load phase.
type loopStats struct {
	tally
	lat      []float64 // ms from due time to answer (open loop), answered requests only
	svc      []float64 // ms from send to answer, answered requests only
	maxLate  time.Duration
	achieved float64 // answered requests per second
}

// request issues one request and reports whether its answer was wrong.
type request func() (wrong bool, err error)

// source hands out the next request of a sequence; loops call it from one
// goroutine at a time.
type source func() request

func (st *loopStats) record(wrong bool, err error, due, sent, done time.Time) {
	st.Attempted++
	switch {
	case err != nil:
		st.Failed++
	case wrong:
		st.Failed++
		st.Wrong++
	default:
		st.lat = append(st.lat, ms(done.Sub(due)))
		st.svc = append(st.svc, ms(done.Sub(sent)))
	}
}

func (st *loopStats) merge(o *loopStats) {
	st.tally.add(o.tally)
	st.lat = append(st.lat, o.lat...)
	st.svc = append(st.svc, o.svc...)
	st.maxLate = max(st.maxLate, o.maxLate)
}

// openLoop issues requests on a fixed schedule of rate per second for dur,
// over the given number of senders. A pacer hands each request to a free
// sender at its due time, or as soon as one frees up if all are busy, and
// each request is timed from its due time, so a stall counts against every
// request queued behind it. maxLate is the latest any request was sent.
func openLoop(senders int, rate float64, dur time.Duration, next source) loopStats {
	interval := time.Duration(float64(time.Second) / rate)
	count := int(dur / interval)
	type job struct {
		due time.Time
		do  request
	}
	jobs := make(chan job)
	results := make([]loopStats, senders)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			for j := range jobs {
				sent := time.Now()
				if late := sent.Sub(j.due); late > lateAfter {
					st.Late++
					st.maxLate = max(st.maxLate, late)
				}
				wrong, err := j.do()
				st.record(wrong, err, j.due, sent, time.Now())
			}
		}(&results[w])
	}
	start := time.Now()
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(i) * interval)
		do := next()
		sleepUntil(due)
		jobs <- job{due, do}
	}
	close(jobs)
	wg.Wait()
	var st loopStats
	for i := range results {
		st.merge(&results[i])
	}
	st.achieved = float64(len(st.lat)) / time.Since(start).Seconds()
	return st
}

// closedLoop keeps one request in flight on each sender for dur.
func closedLoop(senders int, dur time.Duration, next source) loopStats {
	results := make([]loopStats, senders)
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				do := next()
				mu.Unlock()
				sent := time.Now()
				wrong, err := do()
				st.record(wrong, err, sent, sent, time.Now())
			}
		}(&results[w])
	}
	wg.Wait()
	var st loopStats
	for i := range results {
		st.merge(&results[i])
	}
	st.achieved = float64(len(st.lat)) / time.Since(start).Seconds()
	return st
}

// sleepUntil blocks until t in the nanosleep system call, on a thread of
// its own: the runtime's timers wake up to a millisecond late, which
// would read as generator lag at these request rates.
func sleepUntil(t time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}
