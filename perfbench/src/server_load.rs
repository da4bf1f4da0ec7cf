//! `server_load`: one sharded many-connection run with faults — Poisson
//! IACK arrivals, a 30 % resumed / 20 % 0-RTT mix, link blackouts, a
//! server crash every 900 ms, client give-up and reconnect, a
//! concurrency limit of 48 and Retry-deferred admission. The handshake
//! code of `handshake_matrix`, but many connections share one event loop.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rq_http::HttpVersion;
use rq_obs::Registry;
use rq_par::{ProfileReport, SweepRunner};
use rq_profiles::client_by_name;
use rq_quic::{OverloadPolicy, ServerAckMode};
use rq_sim::{SimDuration, SimRng};
use rq_testbed::{
    run_server_load_sharded, ArrivalProcess, ClassMix, ReconnectPolicy, Scenario, ServerLoadReport,
    ServerLoadSpec,
};

use crate::layers::{self, StackCounts};
use crate::measure::{debug_digest, ratio, timed};
use crate::{Metric, Pass, Workload};

const ARRIVALS: usize = 6000;
/// Arrivals per independent server replica (as `bench_sweep`'s
/// `fault_load` class).
const SHARD_ARRIVALS: usize = 64;
/// Seed-derivation tag of the load spec.
const LOAD_STREAM: u64 = 0x4c4f_4144;

pub struct ServerLoad {
    spec: ServerLoadSpec,
}

impl ServerLoad {
    pub fn new(seed: u64) -> Self {
        let client = client_by_name("quic-go").expect("quic-go profile exists");
        let mut base = Scenario::base(
            client,
            ServerAckMode::InstantAck { pad_to_mtu: false },
            HttpVersion::H1,
        );
        base.seed = SimRng::derive(seed, &[LOAD_STREAM]).next_u64();
        base.faults.blackout = Some((SimDuration::from_millis(400), SimDuration::from_millis(150)));
        base.faults.crash_every = Some(SimDuration::from_millis(900));
        base.faults.give_up_after = Some(SimDuration::from_secs(3));
        base.faults.reconnect = Some(ReconnectPolicy::default());
        let mut spec = ServerLoadSpec::new(
            base,
            ARRIVALS,
            ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(10),
            },
        );
        spec.mix = Some(ClassMix {
            resumed: 0.3,
            zero_rtt: 0.2,
        });
        spec.concurrency_limit = 48;
        spec.overload = OverloadPolicy::RetryDefer;
        spec.conn_deadline = SimDuration::from_secs(10);
        ServerLoad { spec }
    }
}

/// Digest of a load's simulated outcome: the whole report except its
/// metrics registry, which counts engine work (events, stale timers)
/// rather than what the connections experienced.
fn report_digest(report: &ServerLoadReport) -> u32 {
    let mut outcome = report.clone();
    outcome.metrics = Registry::default();
    debug_digest(&outcome)
}

impl Workload for ServerLoad {
    fn warm_up(&mut self, runner: &SweepRunner) {
        let small = ServerLoadSpec {
            arrivals: 4 * SHARD_ARRIVALS,
            ..self.spec.clone()
        };
        run_server_load_sharded(&small, runner, SHARD_ARRIVALS);
    }

    fn pass(&mut self, runner: &SweepRunner, _traced: bool) -> Pass {
        let (run, wall, cpu) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_server_load_sharded(&self.spec, runner, SHARD_ARRIVALS)
            }))
        });
        let (digest, conns, counts) = match &run {
            Ok(report) => (
                report_digest(report),
                report.fates.completed + report.fates.retried_then_accepted,
                StackCounts::of(&report.metrics),
            ),
            Err(_) => (0, 0, StackCounts::default()),
        };
        Pass {
            wall_s: wall,
            cpu_s: cpu,
            digests: vec![digest],
            unit_ops: vec![ARRIVALS as u64],
            conns,
            op_ms: Vec::new(),
            counts,
        }
    }

    fn extra_metrics(&self, passes: &[Pass]) -> Vec<Metric> {
        let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
        let events: u64 = passes.iter().map(|p| p.counts.events).sum();
        vec![Metric::new(
            "sim_events_per_s",
            ratio(events as f64, wall),
            "1/s",
        )]
    }

    fn layer_metrics(&mut self, traced: &[Pass], profile: &ProfileReport) -> Vec<Metric> {
        let busy = layers::busy_ns_per_pass(profile, traced.len());
        let mut m = layers::par_metrics(profile);
        m.extend(layers::stack_metrics(&traced[0].counts, busy));
        m
    }
}
