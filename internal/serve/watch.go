package serve

import (
	"sync"

	"xpdl/internal/obs"
)

// Watch metrics.
var (
	mWatchEvents = obs.Default().Counter("xpdl_watch_events_total",
		"Generation-change events published to watch subscribers.")
	mWatchEvicted = obs.Default().Counter("xpdl_watch_evicted_total",
		"Watch subscribers evicted because their event queue was full.")
	gWatchSSE = obs.Default().GaugeWith("xpdl_watch_subscribers",
		"Active watch subscribers, by transport.", "transport", "sse")
	gWatchPoll = obs.Default().GaugeWith("xpdl_watch_subscribers",
		"Active watch subscribers, by transport.", "transport", "poll")
)

// watchHistory bounds the per-model replay ring: a reconnecting
// subscriber can resume via ?since= across that many generations.
const watchHistory = 64

// defaultWatchBuffer is the per-subscriber queue depth when the store
// was not configured otherwise.
const defaultWatchBuffer = 16

// watchHub keeps one event log per model. buffer is the queue depth of
// every new subscriber.
type watchHub struct {
	mu     sync.Mutex
	buffer int
	closed bool
	models map[string]*eventLog[WatchEvent]
}

func newWatchHub(buffer int) *watchHub {
	if buffer <= 0 {
		buffer = defaultWatchBuffer
	}
	return &watchHub{buffer: buffer, models: map[string]*eventLog[WatchEvent]{}}
}

// log returns ident's event log, creating it on first use, and the
// current subscriber queue depth.
func (h *watchHub) log(ident string) (*eventLog[WatchEvent], int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.models[ident]
	if l == nil {
		l = newEventLog[WatchEvent](watchHistory, mWatchEvicted)
		if h.closed {
			l.close()
		}
		h.models[ident] = l
	}
	return l, h.buffer
}

// publish assigns the event its per-model sequence number and delivers
// it to the model's subscribers.
func (h *watchHub) publish(ev WatchEvent) uint64 {
	l, _ := h.log(ev.Model)
	mWatchEvents.Inc()
	return l.publish(ev)
}

// subscribe follows ident's events after since (see eventLog.subscribe).
func (h *watchHub) subscribe(ident string, since uint64) (<-chan WatchEvent, func()) {
	l, buffer := h.log(ident)
	return l.subscribe(since, buffer)
}

// events returns ident's buffered history after since and its latest
// sequence number.
func (h *watchHub) events(ident string, since uint64) ([]WatchEvent, uint64) {
	l, _ := h.log(ident)
	return l.events(since)
}

// close evicts every subscriber and refuses new ones — called during
// graceful drain before the HTTP server shuts down, because an open SSE
// stream would otherwise pin Shutdown forever.
func (h *watchHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for _, l := range h.models {
		l.close()
	}
}

func (ev WatchEvent) withSeq(seq uint64) WatchEvent {
	ev.Seq = seq
	return ev
}

func (ev WatchEvent) sseFrame() (string, uint64) { return "change", ev.Seq }
