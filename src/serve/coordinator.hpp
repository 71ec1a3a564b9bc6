// Trial-lease coordinator: the live half of distributed sweeps.
//
// serve_grid() loads (or resumes) a manifest for one SweepGrid, partitions
// the grid into per-trial work units, and runs a single-threaded poll()
// loop granting time-bounded leases to connected cid_sweep --connect
// workers over the proto.hpp frame protocol. A lease that expires, is
// requeued, or whose connection drops is reclaimed and re-granted — trial
// outcomes are a pure function of (grid, master_seed), so whichever worker
// finally lands a trial lands the same bits, and the final canonical
// manifest is byte-identical to an unsharded --threads 1 run's.
//
// Two manifests: completions are appended LIVE to options.manifest_path as
// they arrive (the crash-tolerance story — a killed coordinator resumes
// from it), and when the grid drains the full record set is rewritten
// canonically ((cell, trial)-sorted via write_manifest_canonical) so the
// final file does not depend on fleet completion order.
//
// Batched grants: a lease request is answered with a run of up to K
// consecutive pending trials of one cell, each under its own lease (own
// id, TTL, renewals, serve.lease_expire consultation and reclaim). The
// first grant on a connection is a single trial; after that K aims at
// about 10 ms of work (kBatchTargetSeconds), from the per-trial hold
// measured on the connection's completions (grant to completion, divided
// by the batch size), capped at kMaxGrantTrials (proto.hpp) and at
// ceil(pending / connected workers) so the tail of a grid spreads over
// the fleet. A worker killed mid-batch loses at most that one batch —
// about 10 ms of work — which the coordinator reclaims and re-grants; the
// trials land elsewhere with the same bytes. The responses to every frame
// one read delivered are buffered and written back in one send (error
// and bye included, before the connection is dropped).
//
// Determinism of lease loss: the "serve.lease_expire" fault site is
// consulted once per leased trial; when it fires the lease is POISONED —
// its completion is rejected (lease_lost) and the trial reclaimed on the
// next tick — so lease-loss tests depend on the fault schedule, never on
// timing. net.accept faults drop fresh connections before the handshake.
//
// Fleet metrics: workers push metrics_version-stamped counter snapshots
// (cumulative; the coordinator keeps each worker's latest), and the fleet
// view — coordinator serve.*/persist.* counters + lease-latency histogram
// + per-name sums over worker snapshots — is exposed as Prometheus text
// on an optional HTTP port and written to options.metrics_prom_path at
// exit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sweep/runner.hpp"

namespace cid::serve {

struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  /// Lease port; 0 binds an ephemeral port (see on_listening / port_file).
  std::uint16_t port = 0;
  /// When non-empty, the bound lease port is written here as one line.
  std::string port_file;

  /// Live append manifest (required): completions land here as they
  /// arrive, and an existing file resumes — its trials are never
  /// re-granted.
  std::string manifest_path;
  /// Canonical (cell, trial)-sorted manifest written when the grid
  /// drains; empty = rewrite manifest_path in place.
  std::string final_manifest_path;

  /// Lease time-to-live; a worker holding a trial longer must renew or
  /// the trial is reclaimed and re-granted.
  double lease_ttl_seconds = 30.0;
  /// Poll timeout / expiry-sweep cadence.
  double tick_seconds = 0.05;
  /// Backoff workers are told to wait when every pending trial is leased.
  std::int64_t wait_backoff_ms = 100;
  /// Reclaims per trial (expiry, disconnect, or worker requeue) before the
  /// trial is declared failed; the grid then finishes incomplete.
  int max_requeues = 8;
  /// Wall-clock limit; 0 = none. A timed-out serve returns with
  /// complete=false (CI safety net, never the normal exit path).
  double max_seconds = 0.0;

  /// Fleet Prometheus /metrics HTTP endpoint. Disabled by default; when
  /// enabled, metrics_port 0 binds ephemerally (see metrics_port_file).
  bool metrics_http = false;
  std::uint16_t metrics_port = 0;
  std::string metrics_port_file;
  /// When non-empty, the final fleet snapshot is written here as
  /// Prometheus text at exit.
  std::string metrics_prom_path;

  /// Invoked once, after sockets are bound and before the first accept —
  /// in-process tests learn the ephemeral ports through this (0 = metrics
  /// endpoint disabled).
  std::function<void(std::uint16_t lease_port, std::uint16_t metrics_port)>
      on_listening;

  bool verbose = false;
};

struct CoordinatorReport {
  std::size_t trials_total = 0;
  std::size_t trials_completed = 0;  // includes resumed
  std::size_t trials_resumed = 0;    // loaded from an existing manifest
  std::size_t trials_failed = 0;     // exceeded max_requeues
  std::size_t leases_granted = 0;      // one per trial granted
  std::size_t leases_expired = 0;      // TTL reclaims (incl. poisoned)
  std::size_t leases_disconnected = 0; // dropped-connection reclaims
  std::size_t requeues = 0;            // worker-requested requeues
  std::size_t completions_rejected = 0;  // complete without a live lease
  std::size_t workers_seen = 0;
  bool complete = false;   // every trial landed (failed == 0)
  bool timed_out = false;  // max_seconds elapsed first
};

/// Runs the coordinator to completion (grid drained, all connections
/// gone) or to the max_seconds limit. After the drain it keeps answering
/// until one tick passes with no connection, so a worker that was still
/// dialing is told `drained` instead of finding the port closed. Throws net_error when the sockets
/// cannot be bound and persist_error on manifest failures; per-connection
/// errors (garbage frames, injected net faults, worker death) only ever
/// drop that connection.
CoordinatorReport serve_grid(const sweep::SweepGrid& grid,
                             const CoordinatorOptions& options);

}  // namespace cid::serve
