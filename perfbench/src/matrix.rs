//! `handshake_matrix`: the paper's grid, one client/server pair per run.
//!
//! 8 client profiles x {WFC, IACK} x {no loss, server-flight tail,
//! second client flight} x {full, 0-RTT} x {small certificate, large
//! certificate with Δt = 200 ms}, a 10 KB HTTP/1.1 body, [`REPS`]
//! repetitions per cell. Connections are short, so per-connection set-up
//! and per-packet constants dominate.

use rq_http::HttpVersion;
use rq_par::{ProfileReport, SweepRunner};
use rq_profiles::all_clients;
use rq_quic::ServerAckMode;
use rq_sim::{SimDuration, SimRng};
use rq_testbed::{rep_scenario, HandshakeClass, LossSpec, Scenario};

use crate::layers::{self, layer, Captured};
use crate::measure::{median, quantile, ratio};
use crate::runs::{fold_pass, run_ops};
use crate::{Metric, Pass, Workload};

/// Repetitions per cell.
const REPS: usize = 8;
/// Seed-derivation tag of the matrix cells.
const CELL_STREAM: u64 = 0x4d41_5452;

pub struct Matrix {
    /// Cell-major, [`REPS`] consecutive repetitions per cell.
    ops: Vec<Scenario>,
    /// The same runs with payload capture on, for traced passes.
    captured_ops: Vec<Scenario>,
    /// Repetition 0 of every cell from the last traced pass.
    samples: Vec<Captured>,
}

impl Matrix {
    pub fn new(seed: u64) -> Self {
        let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
        let losses = [
            LossSpec::None,
            LossSpec::ServerFlightTail,
            LossSpec::SecondClientFlight,
        ];
        let certs = [
            (rq_tls::CERT_SMALL, SimDuration::ZERO),
            (rq_tls::CERT_LARGE, SimDuration::from_millis(200)),
        ];
        let mut ops = Vec::new();
        let mut cell = 0u64;
        for client in all_clients() {
            for ack in [ServerAckMode::WaitForCertificate, iack] {
                for loss in losses {
                    for class in [HandshakeClass::Full, HandshakeClass::ZeroRtt] {
                        for (cert_len, cert_delay) in certs {
                            let mut sc = Scenario::base(client.clone(), ack, HttpVersion::H1);
                            sc.loss = loss;
                            sc.handshake_class = class;
                            sc.cert_len = cert_len;
                            sc.cert_delay = cert_delay;
                            sc.seed = SimRng::derive(seed, &[CELL_STREAM, cell]).next_u64();
                            ops.extend((0..REPS).map(|r| rep_scenario(&sc, r)));
                            cell += 1;
                        }
                    }
                }
            }
        }
        let captured_ops = ops
            .iter()
            .map(|sc| {
                let mut sc = sc.clone();
                sc.capture_payloads = true;
                sc
            })
            .collect();
        Matrix {
            ops,
            captured_ops,
            samples: Vec::new(),
        }
    }

    fn op_ms_of(&self, passes: &[Pass], class: HandshakeClass) -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| p.op_ms.iter().enumerate())
            .filter(|(i, _)| self.ops[*i].handshake_class == class)
            .map(|(_, ms)| *ms)
            .collect()
    }
}

impl Workload for Matrix {
    fn warm_up(&mut self, runner: &SweepRunner) {
        let firsts: Vec<Scenario> = self.ops.iter().step_by(REPS).cloned().collect();
        run_ops(runner, &firsts, |_| false);
    }

    fn pass(&mut self, runner: &SweepRunner, traced: bool) -> Pass {
        let ops = if traced {
            &self.captured_ops
        } else {
            &self.ops
        };
        let (done, wall, cpu) = run_ops(runner, ops, |i| traced && i % REPS == 0);
        let pass = fold_pass(&done, REPS, wall, cpu);
        if traced {
            self.samples = done.into_iter().filter_map(|o| o.captured).collect();
        }
        pass
    }

    fn extra_metrics(&self, passes: &[Pass]) -> Vec<Metric> {
        let all: Vec<f64> = passes.iter().flat_map(|p| p.op_ms.clone()).collect();
        let p99 = quantile(&all, 0.99);
        let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
        let events: u64 = passes.iter().map(|p| p.counts.events).sum();
        vec![
            Metric::new("conn_p50_ms", median(&all), "ms"),
            Metric::new("conn_p99_ms", p99, "ms"),
            Metric::new("conn_samples", all.len() as f64, "count"),
            Metric::new(
                "conn_samples_beyond_p99",
                all.iter().filter(|&&ms| ms > p99).count() as f64,
                "count",
            ),
            Metric::new("sim_events_per_s", ratio(events as f64, wall), "1/s"),
        ]
    }

    fn layer_metrics(&mut self, traced: &[Pass], profile: &ProfileReport) -> Vec<Metric> {
        let pass = &traced[0];
        let busy = layers::busy_ns_per_pass(profile, traced.len());
        let mut m = vec![
            layer(
                "testbed.run_full_ms_p50",
                median(&self.op_ms_of(traced, HandshakeClass::Full)),
            ),
            layer(
                "testbed.run_0rtt_ms_p50",
                median(&self.op_ms_of(traced, HandshakeClass::ZeroRtt)),
            ),
            layer(
                "qlog.events_per_conn",
                ratio(pass.counts.qlog_events as f64, self.ops.len() as f64),
            ),
        ];
        m.extend(layers::par_metrics(profile));
        m.extend(layers::stack_metrics(&pass.counts, busy));
        m.extend(layers::replay_metrics(
            &self.samples,
            pass.counts.sealed,
            busy,
        ));
        m
    }
}
