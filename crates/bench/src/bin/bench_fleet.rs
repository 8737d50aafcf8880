//! Fleet-scale load benchmark: the sharded controller under tens of
//! thousands of simulated agents.
//!
//! Drives the deterministic `collect::loadgen` fleet (real collection
//! agents, fault-injected links, session-protocol traffic shapes) into a
//! [`ShardedController`] at multiple fleet sizes and shard counts, and
//! gates the fleet invariants of DESIGN.md §14:
//!
//! * **determinism** — the same seed produces a bit-identical
//!   [`FleetReport`] (counters, digests, simulated latencies);
//! * **shard transparency** — the merged canonical TSDB digest of an
//!   N-shard fleet equals a single controller's on identical traffic;
//! * **sustained ingest** — `rate_ingest_rps` (readings ingested per
//!   wall-clock second at the main fleet size, committed conservatively)
//!   must not regress;
//! * **tail latency and footprint** — `cost_ack_p99_s` (simulated-time
//!   ack p99, deterministic) must not grow, and `cost_bytes_per_agent`
//!   (a byte count the seed determines) must equal the baseline.
//!
//! Flags (the shared bench conventions):
//!
//! * `--fast`, `--json`, `--out PATH`, `--compare PATH` — the shared
//!   gated-bench conventions, see [`darnet_bench::gate`].
//! * `--check` — enforce the invariant gates listed above.
#![expect(
    clippy::disallowed_methods,
    reason = "the bench harness wall-clocks the ingest it measures"
)]

use std::collections::BTreeMap;
use std::time::Instant;

use darnet_bench::gate::{self, Gate};
use darnet_collect::{run_fleet, ControllerConfig, FleetAdmission, FleetConfig, ShardConfig};

/// The fleet size whose numbers are regression-gated.
const MAIN_AGENTS: usize = 10_000;
/// Smoke fleet for `--fast` (gates still run; the committed baseline is
/// produced with the same flag CI uses).
const FAST_AGENTS: usize = 10_000;
/// The counts the fleet seed fully determines (whole keys, and the
/// suffixes of the per-shard-count families), which `--compare` holds
/// to the baseline exactly.
const SEEDED: &[&str] = &[
    "_readings_ingested",
    "_deliveries",
    "_queue_shed",
    "fleet_acked",
    "fleet_retransmits",
    "fleet_abandoned",
    "fleet_deferred_flushes",
    "cost_bytes_per_agent",
];
/// Wall-clock throughput baselines are recorded at this fraction of the
/// measured rate so cross-machine noise does not trip the gate; the
/// compare tolerance then catches genuine collapses.
const CONSERVATIVE: f64 = 0.7;

fn fleet_config(agents: usize, session_seconds: f64) -> FleetConfig {
    FleetConfig {
        agents,
        session_seconds,
        ..FleetConfig::default()
    }
}

fn shard_config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        // Fleet-scale queue: absorb a whole drain tick of a big fleet.
        queue_limit: 65_536,
        controller: ControllerConfig {
            // Per-agent series keep TSDB inserts append-only at fleet
            // scale (a shared series would be quadratic in fleet size).
            per_agent_series: true,
            ..ControllerConfig::default()
        },
    }
}

fn signal_code(signal: FleetAdmission) -> f64 {
    match signal {
        FleetAdmission::Accept => 0.0,
        FleetAdmission::Throttle => 1.0,
        FleetAdmission::Shed => 2.0,
    }
}

fn run(fast: bool) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let agents = if fast { FAST_AGENTS } else { MAIN_AGENTS };
    let session = if fast { 6.0 } else { 10.0 };
    let shard_counts: &[usize] = if fast { &[1, 8] } else { &[1, 4, 8, 16] };
    let main_shards = *shard_counts.last().expect("shard counts non-empty");

    // Scale sweep: the same seeded fleet at every shard count, timed.
    // The last (highest) shard count is the gated configuration.
    let mut main_report = None;
    for &shards in shard_counts {
        let config = fleet_config(agents, session);
        let start = Instant::now();
        let run = run_fleet(&config, shard_config(shards)).expect("fleet run");
        // Stopped before the controller is dropped: the run is what is
        // timed, not freeing 10k agents' state.
        let elapsed = start.elapsed().as_secs_f64();
        let (_, report) = run;
        let prefix = format!("fleet{agents}_shards{shards}");
        out.insert(
            format!("{prefix}_ingest_rps"),
            report.readings_ingested as f64 / elapsed.max(1e-9),
        );
        out.insert(format!("{prefix}_elapsed_s"), elapsed);
        out.insert(
            format!("{prefix}_readings_ingested"),
            report.readings_ingested as f64,
        );
        out.insert(format!("{prefix}_deliveries"), report.deliveries as f64);
        out.insert(format!("{prefix}_queue_shed"), report.queue_shed as f64);
        out.insert(format!("{prefix}_wire_mb"), report.wire_bytes as f64 / 1e6);
        out.insert(
            format!("{prefix}_peak_signal"),
            signal_code(report.peak_signal),
        );
        if shards == main_shards {
            main_report = Some(report);
        }
    }
    let main = main_report.expect("main shard count measured");

    out.insert("fleet_agents".to_string(), agents as f64);
    out.insert("fleet_shards".to_string(), main_shards as f64);

    // Gated metrics. The throughput baseline is recorded conservatively
    // (× CONSERVATIVE) so only genuine collapses trip the 15% gate; the
    // simulated-time latency is deterministic and gates tightly, the
    // byte count exactly (`SEEDED`).
    let rps = out[&format!("fleet{agents}_shards{main_shards}_ingest_rps")];
    out.insert("rate_ingest_rps".to_string(), rps * CONSERVATIVE);
    out.insert("cost_ack_p99_s".to_string(), main.ack_latency_p99);
    out.insert(
        "cost_bytes_per_agent".to_string(),
        main.bytes_per_agent as f64,
    );
    out.insert("fleet_ack_p50_s".to_string(), main.ack_latency_p50);
    out.insert("fleet_ack_max_s".to_string(), main.ack_latency_max);
    out.insert("fleet_acked".to_string(), main.acked as f64);
    out.insert("fleet_retransmits".to_string(), main.retransmits as f64);
    out.insert("fleet_abandoned".to_string(), main.abandoned as f64);
    out.insert(
        "fleet_deferred_flushes".to_string(),
        main.deferred_flushes as f64,
    );

    // Determinism twin: the same seed must reproduce the report bit for
    // bit (counters, simulated latencies, digests — everything).
    let (_, twin) = run_fleet(&fleet_config(agents, session), shard_config(main_shards))
        .expect("determinism twin");
    out.insert(
        "rate_fleet_deterministic".to_string(),
        f64::from(u8::from(twin == main)),
    );

    // Shard transparency: with feedback off (offered traffic independent
    // of controller state), the merged canonical TSDB digest of an
    // 8-shard fleet equals a single controller's on identical traffic.
    // Smaller fleet: this is an invariant check, not a measurement.
    let eq_config = FleetConfig {
        honor_backpressure: false,
        ..fleet_config(if fast { 500 } else { 2000 }, 6.0)
    };
    let (single, single_report) = run_fleet(&eq_config, shard_config(1)).expect("single-shard run");
    let (sharded, sharded_report) = run_fleet(&eq_config, shard_config(8)).expect("sharded run");
    let single_controller = single.shard_controller(0).expect("shard 0 exists");
    let digests_match = sharded.tsdb_digest() == single_controller.tsdb().canonical_fingerprint()
        && sharded_report.tsdb_digest == single_report.tsdb_digest
        && sharded_report.readings_ingested == single_report.readings_ingested;
    out.insert(
        "rate_fleet_digest_match".to_string(),
        f64::from(u8::from(digests_match)),
    );

    out
}

fn main() {
    Gate::start(
        "fleet-scale sharded ingest harness",
        run,
        gate::print_metrics,
    )
    .finish(SEEDED, |results, failures| {
        failures.floors(
            results,
            &[
                (
                    "fleet_agents",
                    10_000.0,
                    "the harness must exercise a ≥10k-agent fleet",
                ),
                (
                    "rate_fleet_deterministic",
                    1.0,
                    "same seed must reproduce the fleet report bitwise",
                ),
                (
                    "rate_fleet_digest_match",
                    1.0,
                    "sharded TSDB must merge to the single-controller digest",
                ),
                ("fleet_acked", 1.0, "acks must flow back to agents"),
            ],
        );
        if results["fleet_abandoned"] > 0.0 {
            failures.fail(format_args!(
                "fleet_abandoned = {} ≠ 0 — the retry budget must cover baseline loss at \
                 fleet scale",
                results["fleet_abandoned"]
            ));
        }
    });
}
