package serve

import (
	"sync"

	"xpdl/internal/obs"
)

// logEvent is an event an eventLog carries and writeSSE streams.
type logEvent[E any] interface {
	// withSeq returns the event stamped with its sequence number.
	withSeq(seq uint64) E
	// sseFrame names the event's SSE type and id.
	sseFrame() (event string, id uint64)
}

// eventLog is a sequence-numbered event history with live subscribers.
// The model watch keeps one per model, every sweep job keeps one.
// Events take consecutive sequence numbers from 1; the history keeps
// the last keep events (all of them when keep is 0), so a subscriber
// that reconnects with the last sequence number it saw resumes without
// a gap. Publishing never blocks on consumers: a subscriber whose queue
// is full is evicted (its channel closed), so a slow reader cannot
// stall the publisher.
type eventLog[E logEvent[E]] struct {
	keep    int
	evicted *obs.Counter // slow-consumer evictions; nil counts nothing

	mu     sync.Mutex
	seq    uint64
	hist   []E // oldest first; the last entry carries seq
	subs   map[chan E]struct{}
	closed bool
}

func newEventLog[E logEvent[E]](keep int, evicted *obs.Counter) *eventLog[E] {
	return &eventLog[E]{keep: keep, evicted: evicted, subs: map[chan E]struct{}{}}
}

// publish stamps ev with the next sequence number, appends it to the
// history and delivers it to every subscriber, evicting any whose queue
// is full. After close the sequence and history still advance (pollers
// read them); there is just no one left to deliver to.
func (l *eventLog[E]) publish(ev E) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev = ev.withSeq(l.seq)
	l.hist = append(l.hist, ev)
	if l.keep > 0 && len(l.hist) > l.keep {
		l.hist = l.hist[len(l.hist)-l.keep:]
	}
	for ch := range l.subs {
		select {
		case ch <- ev:
		default:
			delete(l.subs, ch)
			close(ch)
			l.evicted.Inc()
		}
	}
	return l.seq
}

// afterLocked returns the retained events with a sequence number above
// since; l.mu is held.
func (l *eventLog[E]) afterLocked(since uint64) []E {
	first := l.seq - uint64(len(l.hist)) // sequence number before hist[0]
	if since >= l.seq {
		return nil
	}
	return l.hist[max(since, first)-first:]
}

// subscribe returns a channel that replays the history after since and
// then carries live events, with room for buffer undelivered live
// events. The channel is closed on eviction and on close; a
// subscription to a closed log ends right after its replay. cancel
// unsubscribes; it is idempotent and safe after eviction.
func (l *eventLog[E]) subscribe(since uint64, buffer int) (<-chan E, func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	replay := l.afterLocked(since)
	ch := make(chan E, buffer+len(replay))
	for _, ev := range replay {
		ch <- ev
	}
	if l.closed {
		close(ch)
		return ch, func() {}
	}
	l.subs[ch] = struct{}{}
	return ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// events returns a copy of the retained history after since and the
// latest sequence number — the long-poll fast path.
func (l *eventLog[E]) events(since uint64) ([]E, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]E(nil), l.afterLocked(since)...), l.seq
}

// close ends every subscription; later subscriptions end right after
// their replay. Idempotent.
func (l *eventLog[E]) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for ch := range l.subs {
		delete(l.subs, ch)
		close(ch)
	}
}
