// Package servdisc is a from-scratch reproduction of "Understanding
// Passive and Active Service Discovery" (Bartlett, Heidemann,
// Papadopoulos; ISI-TR-642 / IMC 2007): passive network monitoring and
// Nmap-style active probing for service discovery, the analysis comparing
// them, and a calibrated campus-network simulator standing in for the
// paper's USC testbed.
//
// The root package is a thin facade (servdisc.go):
//
//   - NewPipeline assembles the batched, sharded passive-monitoring
//     pipeline (link assigner → per-link taps → sharded discoverer).
//     With Config.Scan it attaches the concurrent, rate-limited
//     active-scan scheduler (Pipeline.Scan, RunScans); passive batches
//     and scan reports reconcile into one engine's inventory with
//     per-service provenance (passive-first vs active-first — the paper's
//     comparison axis), each report applied on the goroutine delivering it.
//   - Discover replays a pcap trace through the passive pipeline.
//
// The engine is continuously queryable while it ingests: Snapshot freezes
// a consistent point-in-time Inventory without stopping producers
// (generation-tracked, so unchanged shards are free), Watch/Subscribe
// stream typed discovery events (ServiceDiscovered, ProvenanceUpgraded,
// ScannerDetected, ScanCompleted) through a bounded, drop-counting
// fanout, and Replay streams a pcap trace into the live engine.
//
// The moving parts live under internal/ — internal/pipeline defines the
// batch-ingest contract, internal/capture the taps and link monitor,
// internal/probe the scan backends, the sequential sim-time sweeper and
// the concurrent wall-clock Scheduler, and internal/core the discoverers
// (passive and active, joined in one sharded engine) plus the analysis.
// internal/federate layers multi-campus federation on top: N engines
// publish their site-tagged event streams over a versioned wire format
// (passived -publish), and an aggregating daemon (cmd/federated)
// reconciles them into one global inventory with per-site provenance and
// cross-site dedup.
//
// See README.md for a quickstart, DESIGN.md for the system architecture
// (streaming ingest, shard-then-merge determinism, and the hybrid
// engine), cmd/repro for the driver that regenerates the paper's tables
// and figures, and bench_test.go in this directory for the benchmark
// harness wrapping each of those artifacts.
package servdisc
