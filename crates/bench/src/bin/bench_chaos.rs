//! Crash-recovery timing: what replaying the WAL costs against
//! re-collecting the session it logged.
//!
//! Runs one seeded collection session through two controller
//! kill/restart windows (each tearing the log's tail) over 5 % link loss,
//! then times rebuilding the controller from that log against running the
//! session again from scratch (DESIGN.md §13.5). Everything the seed fixes
//! about the scenario — acked and lost batches, WAL bytes, replayed
//! records, the no-WAL control, overload shedding, determinism — is
//! pinned by `crates/collect/tests/golden.rs`; this harness keeps the
//! clock readings only:
//!
//! * **bounded replay** — `recovery_replay_ms` stays under an absolute
//!   budget;
//! * **replay pays** — `speedup_recovery_vs_rerun`, the median ratio of
//!   interleaved (re-run, replay) rounds, stays above a floor and, under
//!   `--compare`, within the tolerance of the baseline.
//!
//! Flags: `--fast`, `--json`, `--out PATH`, `--compare PATH` and
//! `--check`, the shared gated-bench conventions (see
//! [`darnet_bench::gate`]).
use std::collections::BTreeMap;
use std::sync::Arc;

use darnet_bench::gate::{self, Gate};
use darnet_collect::runtime::{run_session, CampaignConfig, CrashWindow, Durability};
use darnet_collect::{replay_into, Controller, MemStorage, StreamId, WalConfig, WalStorage};
use darnet_sim::{CanonicalBehavior, DrivingWorld, Segment, WorldConfig};

/// Absolute budget for replaying the full session log, milliseconds.
/// Replay of a 10 s session is sub-millisecond on any host; the budget
/// only has to catch a catastrophic regression (e.g. quadratic replay).
const REPLAY_BUDGET_MS: f64 = 50.0;
/// Replaying the log must beat re-collecting the session outright by at
/// least this factor, or durability is not paying for its complexity.
const SPEEDUP_FLOOR: f64 = 2.0;

fn schedule() -> Vec<Segment<CanonicalBehavior>> {
    [CanonicalBehavior::NormalDriving, CanonicalBehavior::Texting]
        .into_iter()
        .enumerate()
        .map(|(i, behavior)| Segment {
            driver: 0,
            behavior,
            start: i as f64 * 5.0,
            duration: 5.0,
        })
        .collect()
}

/// Two controller outages — a 1 s blackout mid-collection and a shorter
/// one near the end — each preceded by a 13-byte torn tail write.
fn two_crashes(storage: Arc<MemStorage>) -> Durability {
    Durability {
        storage: Some(storage as Arc<dyn WalStorage>),
        wal: WalConfig {
            segment_max_records: 8,
            snapshot_every: 20,
        },
        crashes: vec![
            CrashWindow {
                kill_t: 3.0,
                restart_t: 4.0,
            },
            CrashWindow {
                kill_t: 7.0,
                restart_t: 7.75,
            },
        ],
        torn_tail_bytes: 13,
    }
}

fn run(fast: bool) -> BTreeMap<String, f64> {
    let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
    let schedule = schedule();
    // The paper's pair with 5 % loss on every link.
    let mut config = CampaignConfig::default();
    config.link.loss = 0.05;
    let session = |durability: &Durability| {
        let streams = StreamId::DARNET_PAIR;
        run_session(&world, 0, &schedule, &config, &streams, &[], durability).expect("session")
    };
    let storage = Arc::new(MemStorage::new());
    session(&two_crashes(Arc::clone(&storage)));

    // Rebuilding controller state from the WAL vs re-collecting the
    // session from scratch (the only alternative when the TSDB dies
    // without a log). The in-session recoveries already repaired the
    // tail, so repeated replays see a clean, stable log. Timed as
    // interleaved (re-run, replay) rounds: the speedup is the median of
    // each round's own ratio, whose two sides saw the same host.
    let rounds = if fast { 15 } else { 40 };
    let (t_rerun, t_replay, speedup) = gate::paired_time_per_call(rounds, |replay| {
        if replay {
            let mut controller = Controller::new(config.controller);
            replay_into(&mut controller, storage.as_ref()).expect("timed replay");
        } else {
            session(&Durability::default());
        }
    });
    BTreeMap::from([
        ("recovery_replay_ms".to_string(), t_replay * 1e3),
        ("session_rerun_ms".to_string(), t_rerun * 1e3),
        ("speedup_recovery_vs_rerun".to_string(), speedup),
    ])
}

fn main() {
    Gate::start("crash-recovery timing", run, gate::print_metrics).finish(|results, failures| {
        let replay = results["recovery_replay_ms"];
        if replay > REPLAY_BUDGET_MS {
            failures.fail(format_args!(
                "recovery_replay_ms = {replay:.3} > {REPLAY_BUDGET_MS} — replay must stay bounded"
            ));
        }
        let speedup = results["speedup_recovery_vs_rerun"];
        if speedup < SPEEDUP_FLOOR {
            failures.fail(format_args!(
                "speedup_recovery_vs_rerun = {speedup:.3} < {SPEEDUP_FLOOR}"
            ));
        }
    });
}
