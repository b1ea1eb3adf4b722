package core

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"servdisc/internal/pipeline"
)

// EventKind classifies a discovery event.
type EventKind uint8

// Event kinds.
const (
	// EventServiceDiscovered: the first positive evidence for a service
	// from either technique. Emitted exactly once per service; the event's
	// Provenance says which technique got there (PassiveOnly or ActiveOnly
	// — the classification as of the moment of discovery).
	EventServiceDiscovered EventKind = iota
	// EventProvenanceUpgraded: a service already discovered by one
	// technique has now been confirmed by the other. Provenance carries
	// the upgraded class (PassiveFirst or ActiveFirst, by comparing the
	// two first-observation timestamps). At most once per service.
	EventProvenanceUpgraded
	// EventScannerDetected: an external source crossed the paper's
	// 100-destinations/100-RSTs threshold. Emitted once per source, at the
	// moment of crossing; Scanner carries the tallies at that moment (the
	// final Inventory reports the peak window instead).
	EventScannerDetected
	// EventScanCompleted: an active sweep report was reconciled into the
	// engine. Scan carries the sweep metadata, Truncated whether the sweep
	// was cut short by its deadline or cancellation.
	EventScanCompleted
	// EventServiceExpired: a retention deadline passed with no fresh
	// evidence, withdrawing the service (retention.go). Time is the expiry
	// deadline (LastSeen + TTL, observation clock); Provenance names the
	// evidence kind withdrawn — PassiveOnly for passive records, ActiveOnly
	// for probe answers. Emitted exactly once per expiry, in deterministic
	// (deadline, key) order, at the snapshot that surfaces the expiry. A
	// service expired and later re-observed is re-announced with a fresh
	// ServiceDiscovered.
	EventServiceExpired
)

// eventKindNames are the stable wire names of the event kinds. Serialized
// feeds carry these strings, never the raw uint8, so reordering or
// extending the constants above cannot corrupt a recorded or federated
// stream.
var eventKindNames = [...]string{
	EventServiceDiscovered:  "service-discovered",
	EventProvenanceUpgraded: "provenance-upgraded",
	EventScannerDetected:    "scanner-detected",
	EventScanCompleted:      "scan-completed",
	EventServiceExpired:     "service-expired",
}

// String names the event kind (the same stable names MarshalText uses).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Valid reports whether k is one of the defined kinds — the range check
// behind MarshalText and the federation wire's one-byte enum.
func (k EventKind) Valid() bool { return int(k) < len(eventKindNames) }

// MarshalText serializes the kind as its stable string name, making
// EventKind safe to embed in JSON feeds. Unknown kinds are an error rather
// than a silently unparseable placeholder.
func (k EventKind) MarshalText() ([]byte, error) {
	if k.Valid() {
		return []byte(eventKindNames[k]), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown event kind %d", uint8(k))
}

// UnmarshalText parses the names written by MarshalText.
func (k *EventKind) UnmarshalText(text []byte) error {
	s := string(text)
	for i, name := range eventKindNames {
		if s == name {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown event kind %q", s)
}

// Event is one entry of the typed discovery event stream: something the
// engine learned, timestamped with the *observation* clock (trace or
// simulation time, not wall time) and provenance-tagged. Which fields are
// meaningful depends on Kind; unrelated fields are zero.
//
// Events describe live ingest order. Under concurrent ingest the technique
// credited by a ServiceDiscovered event is the one whose evidence was
// *applied* first, which for near-ties may differ from the frozen
// Inventory's timestamp-based provenance; ProvenanceUpgraded events, in
// contrast, compare observation timestamps (corrected for out-of-order
// sweep reports that have not yet triggered the upgrade) and so agree
// with the inventory regardless of interleaving, except when a report
// carrying an even earlier open time is applied only after the upgrade
// already fired.
// The JSON tags define the serialized form the cmd/passived /events feed
// and the federation wire codec emit; enum fields marshal as stable text
// names (see EventKind.MarshalText, Provenance.MarshalText).
type Event struct {
	// Kind selects the event type.
	Kind EventKind `json:"kind"`
	// Time is the observation timestamp the event is about: first evidence
	// for discoveries and upgrades, threshold-crossing packet time for
	// scanner detections, sweep finish time for scan completions.
	Time time.Time `json:"time"`
	// Key identifies the service (service events only).
	Key ServiceKey `json:"key,omitzero"`
	// Provenance tags service events: the discovering technique for
	// ServiceDiscovered, the upgraded class for ProvenanceUpgraded.
	// Omitted when zero, so non-service events don't carry a spurious
	// "passive-only" (the absent field unmarshals back to the same zero).
	Provenance Provenance `json:"prov,omitzero"`
	// Scanner describes the detected scanner (EventScannerDetected only).
	Scanner ScannerInfo `json:"scanner,omitzero"`
	// Scan is the completed sweep's metadata (EventScanCompleted only).
	Scan ScanMeta `json:"scan,omitzero"`
	// Truncated reports whether the completed sweep was cut short
	// (EventScanCompleted only).
	Truncated bool `json:"truncated,omitempty"`
}

// String renders a one-line human-readable form, the shape the commands
// log.
func (e Event) String() string {
	switch e.Kind {
	case EventServiceDiscovered, EventProvenanceUpgraded, EventServiceExpired:
		return fmt.Sprintf("%s %s %s @%s", e.Kind, e.Key, e.Provenance,
			e.Time.UTC().Format(time.RFC3339Nano))
	case EventScannerDetected:
		return fmt.Sprintf("%s %s dsts=%d rsts=%d @%s", e.Kind, e.Scanner.Source,
			e.Scanner.UniqueDsts, e.Scanner.RstDsts, e.Time.UTC().Format(time.RFC3339Nano))
	case EventScanCompleted:
		trunc := ""
		if e.Truncated {
			trunc = " truncated"
		}
		return fmt.Sprintf("%s sweep=%d%s @%s", e.Kind, e.Scan.ID, trunc,
			e.Time.UTC().Format(time.RFC3339Nano))
	default:
		return e.Kind.String()
	}
}

// EventSub is a subscription to an engine's event stream (see
// pipeline.Sub: Events yields the channel, Dropped the per-subscriber
// drop count, Cancel unsubscribes).
type EventSub = pipeline.Sub[Event]

// eventStream reconciles raw per-source discovery signals into the typed
// event stream. The passive shards and the active ingester each report a
// key at most once (their own state makes re-reports impossible); the
// stream's job is the cross-technique join — first report of a key becomes
// ServiceDiscovered, the other technique's later report becomes
// ProvenanceUpgraded — plus pass-through publication of scanner detections
// and sweep completions. All methods are safe for concurrent callers (the
// shard workers and the report reconciler all emit into one stream).
type eventStream struct {
	hub *pipeline.Hub[Event]

	mu   sync.Mutex
	seen map[ServiceKey]firstSeen
}

// firstSeen records the first observation per technique for one service,
// held by value in the join table. A zero instant means that technique has
// not reported; the values are only ever compared, never rendered.
type firstSeen struct {
	passiveAt, activeAt instant
}

const _ = uint(16-unsafe.Sizeof(firstSeen{})) + uint(unsafe.Sizeof(firstSeen{})-16) // == 16

// reportedAt packs a report's timestamp for the join table. A report
// stamped time.Time{} must still count as a report, so it is stored as the
// smallest non-zero instant — it still orders before every real time.
func reportedAt(t time.Time) instant {
	return max(toInstant(t), minInstant)
}

func newEventStream() *eventStream {
	return &eventStream{
		hub:  pipeline.NewHub[Event](),
		seen: make(map[ServiceKey]firstSeen),
	}
}

// passiveDiscovered reports the first passive evidence for key. The
// publish happens under es.mu (Publish never blocks), so a subscriber can
// never see a key's ProvenanceUpgraded before its ServiceDiscovered.
func (es *eventStream) passiveDiscovered(key ServiceKey, t time.Time) {
	es.mu.Lock()
	defer es.mu.Unlock()
	st, known := es.seen[key]
	if st.passiveAt != 0 {
		return
	}
	st.passiveAt = reportedAt(t)
	es.seen[key] = st
	if !known {
		es.hub.Publish(Event{Kind: EventServiceDiscovered, Time: t, Key: key, Provenance: PassiveOnly})
		return
	}
	// The probe answered strictly before passive evidence: active won the
	// race (ties go passive, as in NewHybridInventory).
	prov := PassiveFirst
	if st.activeAt < st.passiveAt {
		prov = ActiveFirst
	}
	es.hub.Publish(Event{Kind: EventProvenanceUpgraded, Time: t, Key: key, Provenance: prov})
}

// activeDiscovered reports the first probe answer for key (see
// passiveDiscovered for the ordering guarantee).
func (es *eventStream) activeDiscovered(key ServiceKey, t time.Time) {
	es.mu.Lock()
	defer es.mu.Unlock()
	st, known := es.seen[key]
	if st.activeAt != 0 {
		return
	}
	st.activeAt = reportedAt(t)
	es.seen[key] = st
	if !known {
		es.hub.Publish(Event{Kind: EventServiceDiscovered, Time: t, Key: key, Provenance: ActiveOnly})
		return
	}
	prov := ActiveFirst
	if st.activeAt >= st.passiveAt {
		prov = PassiveFirst
	}
	es.hub.Publish(Event{Kind: EventProvenanceUpgraded, Time: t, Key: key, Provenance: prov})
}

// activeOpenEarlier corrects the join table when a later-applied report
// carries an earlier open time for an already-known service (sweeps may
// reconcile out of launch order). If the upgrade has not fired yet, the
// eventual ProvenanceUpgraded then compares the true earliest times, as
// the frozen Inventory does; an already-published upgrade is not
// retracted.
func (es *eventStream) activeOpenEarlier(key ServiceKey, t time.Time) {
	es.mu.Lock()
	defer es.mu.Unlock()
	st := es.seen[key]
	if at := reportedAt(t); st.activeAt != 0 && st.passiveAt == 0 && at < st.activeAt {
		st.activeAt = at
		es.seen[key] = st
	}
}

// seedPassive records checkpoint-restored passive evidence in the join
// table WITHOUT publishing: the event already fired in the incarnation
// that wrote the checkpoint, and re-announcing it would break the
// exactly-once contract across restarts.
func (es *eventStream) seedPassive(key ServiceKey, t time.Time) {
	es.mu.Lock()
	defer es.mu.Unlock()
	st := es.seen[key]
	st.passiveAt = reportedAt(t)
	es.seen[key] = st
}

// seedActive is seedPassive's active-side counterpart.
func (es *eventStream) seedActive(key ServiceKey, t time.Time) {
	es.mu.Lock()
	defer es.mu.Unlock()
	st := es.seen[key]
	st.activeAt = reportedAt(t)
	es.seen[key] = st
}

// forget clears one technique's report for key (passive unless prov is
// ActiveOnly), dropping the entry once neither technique has reported.
// Callers hold es.mu.
func (es *eventStream) forget(key ServiceKey, prov Provenance) {
	st := es.seen[key]
	if prov == ActiveOnly {
		st.activeAt = 0
	} else {
		st.passiveAt = 0
	}
	if st == (firstSeen{}) {
		delete(es.seen, key)
	} else {
		es.seen[key] = st
	}
}

// serviceExpired publishes a retention expiry. clearSeen marks snapshot-
// side expiries: their seen-table entry must be dropped here so a later
// rediscovery re-announces. Observe-side retirements cleared their entry
// synchronously via retirePassive (the new incarnation has already re-set
// it by publication time, and must not be clobbered).
func (es *eventStream) serviceExpired(key ServiceKey, at time.Time, prov Provenance, clearSeen bool) {
	es.mu.Lock()
	defer es.mu.Unlock()
	if clearSeen {
		es.forget(key, prov)
	}
	es.hub.Publish(Event{Kind: EventServiceExpired, Time: at, Key: key, Provenance: prov})
}

// retirePassive drops a key's passive seen-table entry without publishing:
// the synchronous half of an observe-side incarnation split, so the split's
// rediscovery is announced as a fresh ServiceDiscovered (the expiry event
// itself follows at the next snapshot).
func (es *eventStream) retirePassive(key ServiceKey) {
	es.mu.Lock()
	defer es.mu.Unlock()
	es.forget(key, PassiveOnly)
}

// scannerDetected publishes a threshold crossing.
func (es *eventStream) scannerDetected(info ScannerInfo, at time.Time) {
	es.hub.Publish(Event{Kind: EventScannerDetected, Time: at, Scanner: info})
}

// scanCompleted publishes a reconciled sweep.
func (es *eventStream) scanCompleted(meta ScanMeta, truncated bool) {
	es.hub.Publish(Event{Kind: EventScanCompleted, Time: meta.Finished, Scan: meta, Truncated: truncated})
}

func (es *eventStream) close() { es.hub.Close() }
