//! Timed single-pair runs, shared by `handshake_matrix` and
//! `bulk_transfer`: each operation is one `run_scenario_with_trace` call
//! fanned over the sweep runner, timed from the benchmark's side.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rq_testbed::{run_scenario_with_trace, RunResult, Scenario, SweepRunner};

use crate::layers::{Captured, StackCounts};
use crate::measure::{timed, Fnv};
use crate::Pass;

/// One finished operation.
pub struct Op {
    /// Digest of the simulated outcome the reference pins.
    pub digest: u64,
    /// Host time of the call, ms.
    pub ms: f64,
    pub completed: bool,
    pub counts: StackCounts,
    /// The run itself, kept only for operations chosen for replay.
    pub captured: Option<Captured>,
}

/// Marks an operation whose run panicked; never a real digest's value
/// in practice, and never equal to a recorded reference.
const PANICKED: u64 = 0xdead_dead_dead_dead;

/// Digest of what a run simulated: TTFB, response time,
/// completion/abort, datagram counts and qlog event counts.
pub fn outcome_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::default();
    h.opt_f64(r.ttfb_ms);
    h.opt_f64(r.response_ms);
    h.u64(u64::from(r.completed));
    h.u64(u64::from(r.aborted));
    h.u64(r.client_datagrams as u64);
    h.u64(r.server_datagrams as u64);
    h.u64(r.client_log.events.len() as u64);
    h.u64(r.server_log.events.len() as u64);
    h.finish()
}

fn run_op(sc: &Scenario, keep: bool) -> Op {
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| run_scenario_with_trace(sc)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match run {
        Ok((result, trace)) => {
            let mut counts = StackCounts::of(&result.metrics);
            counts.qlog_events =
                (result.client_log.events.len() + result.server_log.events.len()) as u64;
            Op {
                digest: outcome_digest(&result),
                ms,
                completed: result.completed,
                counts,
                captured: keep.then_some(Captured { result, trace }),
            }
        }
        Err(_) => Op {
            digest: PANICKED,
            ms,
            completed: false,
            counts: StackCounts::default(),
            captured: None,
        },
    }
}

/// Runs every scenario once over `runner`, keeping the runs `keep`
/// selects. Only the sweep itself is timed.
pub fn run_ops(
    runner: &SweepRunner,
    ops: &[Scenario],
    keep: impl Fn(usize) -> bool + Sync,
) -> (Vec<Op>, f64, f64) {
    timed(|| runner.run(ops.len(), |i| run_op(&ops[i], keep(i))))
}

/// Folds finished operations into a [`Pass`]: one reference digest per
/// consecutive group of `group` operations.
pub fn fold_pass(ops: &[Op], group: usize, wall_s: f64, cpu_s: f64) -> Pass {
    let mut counts = StackCounts::default();
    for op in ops {
        counts.add(&op.counts);
    }
    let digests = ops
        .chunks(group)
        .map(|g| {
            let mut h = Fnv::default();
            for op in g {
                h.u64(op.digest);
            }
            h.finish32()
        })
        .collect();
    Pass {
        wall_s,
        cpu_s,
        digests,
        unit_ops: ops.chunks(group).map(|g| g.len() as u64).collect(),
        conns: ops.iter().filter(|o| o.completed).count() as u64,
        op_ms: ops.iter().map(|o| o.ms).collect(),
        counts,
    }
}
