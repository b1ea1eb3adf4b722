package core

import (
	"fmt"
	"time"

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
	// two first-observation timestamps), PassiveAt and ActiveAt the two
	// timestamps it compared. At most once per service.
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
	// PassiveAt and ActiveAt are each technique's first observation
	// (EventProvenanceUpgraded only): a reader learns whose Time is whose
	// without having seen the discovery that preceded the upgrade.
	PassiveAt time.Time `json:"passive_at,omitzero"`
	ActiveAt  time.Time `json:"active_at,omitzero"`
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

// eventStream is the engine's typed event stream: the hub every shard, the
// report reconciler and the snapshot path publish into. It holds no
// per-service state. The cross-technique join — first evidence for a key
// becomes ServiceDiscovered, the other technique's later evidence becomes
// ProvenanceUpgraded — is decided and published under the lock of the shard
// that owns the key (see passiveShard.passiveDiscovered), so it costs
// nothing here; scanner detections, sweep completions and expiries pass
// straight through. Publish never blocks, so publishing under a shard lock
// is safe.
type eventStream struct {
	hub *pipeline.Hub[Event]
}

func newEventStream() *eventStream {
	return &eventStream{hub: pipeline.NewHub[Event]()}
}

// The cross-technique join. Each half of a key's state lives where it is
// already kept: the passive half is the owning shard's record (a live record
// ⇒ passive has reported, rec.first is when), the active half is the shard's
// activeFirst entry (present ⇒ a probe answer is live). Both
// halves are written, and both kinds of event published, under sh.mu, so per
// key no subscriber sees a ProvenanceUpgraded before its ServiceDiscovered,
// and an expired half is gone the moment it is retired — a later
// rediscovery is always announced.

// passiveDiscovered announces the record observe just created for key
// (PassiveDiscoverer.onService). The caller — apply — holds sh.mu.
func (sh *passiveShard) passiveDiscovered(key ServiceKey, t time.Time) {
	activeAt, probed := sh.activeFirst[key]
	if !probed {
		sh.events.hub.Publish(Event{Kind: EventServiceDiscovered, Time: t, Key: key, Provenance: PassiveOnly})
		return
	}
	// The probe answered strictly before passive evidence: active won the
	// race (ties go passive, as in NewHybridInventory).
	prov := PassiveFirst
	if activeAt < toInstant(t) {
		prov = ActiveFirst
	}
	sh.events.hub.Publish(Event{Kind: EventProvenanceUpgraded, Time: t, Key: key, Provenance: prov,
		PassiveAt: t, ActiveAt: activeAt.time()})
}

// activeDiscovered announces the first live probe answer for key
// (ActiveDiscoverer.onDiscovered, from the goroutine applying the report).
func (sh *passiveShard) activeDiscovered(key ServiceKey, t time.Time) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	at := toInstant(t)
	sh.activeFirst[key] = at
	rec := sh.disc.service(key)
	if rec == nil {
		sh.events.hub.Publish(Event{Kind: EventServiceDiscovered, Time: t, Key: key, Provenance: ActiveOnly})
		return
	}
	prov := ActiveFirst
	if at >= rec.first {
		prov = PassiveFirst
	}
	sh.events.hub.Publish(Event{Kind: EventProvenanceUpgraded, Time: t, Key: key, Provenance: prov,
		PassiveAt: rec.first.time(), ActiveAt: t})
}

// activeOpenEarlier moves a live probe answer's time earlier when a
// later-applied report carries an earlier open time (sweeps may reconcile
// out of launch order). It applies only while no passive record is live: the
// eventual ProvenanceUpgraded then compares the true earliest times, as the
// frozen Inventory does; an already-published upgrade is not retracted.
func (sh *passiveShard) activeOpenEarlier(key ServiceKey, t time.Time) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	at := toInstant(t)
	cur, probed := sh.activeFirst[key]
	if probed && at < cur && sh.disc.service(key) == nil {
		sh.activeFirst[key] = at
	}
}

// seedActive records a checkpoint-restored probe answer WITHOUT publishing:
// the event already fired in the incarnation that wrote the checkpoint, and
// re-announcing it would break the exactly-once contract across restarts.
// (The passive side needs no counterpart: an imported record is its own
// seed.)
func (sh *passiveShard) seedActive(key ServiceKey, t time.Time) {
	sh.mu.Lock()
	sh.activeFirst[key] = toInstant(t)
	sh.mu.Unlock()
}

// activeWithdrawn drops key's probe answer — it expired, or a checkpoint
// import is replacing the active side — so a later answer is announced
// afresh.
func (sh *passiveShard) activeWithdrawn(key ServiceKey) {
	sh.mu.Lock()
	delete(sh.activeFirst, key)
	sh.mu.Unlock()
}

// serviceExpired publishes a retention expiry.
func (es *eventStream) serviceExpired(key ServiceKey, at time.Time, prov Provenance) {
	es.hub.Publish(Event{Kind: EventServiceExpired, Time: at, Key: key, Provenance: prov})
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
