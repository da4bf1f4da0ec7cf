//! `bulk_transfer`: 2-stream CUBIC HTTP/3 IACK transfers at a per-stream
//! size ladder of 256 KiB, 1 MiB and 4 MiB, each clean and with 1 %
//! i.i.d. loss. The data path does nearly all the work; the ladder turns
//! super-linear growth into a measured slope.

use rq_http::HttpVersion;
use rq_par::{ProfileReport, SweepRunner};
use rq_profiles::client_by_name;
use rq_quic::ServerAckMode;
use rq_sim::{ImpairmentSpec, SimRng};
use rq_testbed::{CcAlgorithm, LossSpec, Scenario};

use crate::layers::{self, layer, Captured};
use crate::measure::{median, ratio};
use crate::runs::{fold_pass, run_ops};
use crate::{Metric, Pass, Workload};

/// Per-stream body sizes, largest first so the long runs start first,
/// with their layer-metric names.
const LADDER: [(usize, &str); 3] = [
    (4 << 20, "testbed.transfer_s.4m"),
    (1 << 20, "testbed.transfer_s.1m"),
    (256 << 10, "testbed.transfer_s.256k"),
];
const STREAMS: usize = 2;
/// Seed-derivation tag of the transfers.
const TRANSFER_STREAM: u64 = 0x4255_4c4b;

pub struct Bulk {
    /// Per ladder step: the clean transfer, then the lossy one.
    ops: Vec<Scenario>,
    captured_ops: Vec<Scenario>,
    /// Every transfer of the last traced pass.
    samples: Vec<Captured>,
    /// Response-body MiB delivered by each untraced pass.
    delivered_mib: Vec<f64>,
}

impl Bulk {
    pub fn new(seed: u64) -> Self {
        let client = client_by_name("quic-go").expect("quic-go profile exists");
        let base = Scenario::base(
            client,
            ServerAckMode::InstantAck { pad_to_mtu: false },
            HttpVersion::H3,
        );
        let losses = [
            LossSpec::None,
            LossSpec::Random(ImpairmentSpec::none().with_iid_loss(0.01)),
        ];
        let mut ops = Vec::new();
        for (size, _) in LADDER {
            for loss in losses {
                let mut sc = base.clone();
                sc.file_size = size;
                sc.streams = STREAMS;
                sc.cc = CcAlgorithm::Cubic;
                sc.loss = loss;
                sc.seed = SimRng::derive(seed, &[TRANSFER_STREAM, ops.len() as u64]).next_u64();
                ops.push(sc);
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
        Bulk {
            ops,
            captured_ops,
            samples: Vec::new(),
            delivered_mib: Vec::new(),
        }
    }

    /// Median host seconds of ladder step `step`'s transfer (`lossy`
    /// row or clean) over `passes`.
    fn transfer_s(passes: &[Pass], step: usize, lossy: bool) -> f64 {
        let i = 2 * step + usize::from(lossy);
        median(&passes.iter().map(|p| p.op_ms[i] / 1e3).collect::<Vec<_>>())
    }
}

impl Workload for Bulk {
    fn warm_up(&mut self, runner: &SweepRunner) {
        // The 1 MiB pair: long enough to fault in the data path's
        // buffers, short next to a pass.
        run_ops(runner, &self.ops[2..4], |_| false);
    }

    fn pass(&mut self, runner: &SweepRunner, traced: bool) -> Pass {
        let ops = if traced {
            &self.captured_ops
        } else {
            &self.ops
        };
        let (done, wall, cpu) = run_ops(runner, ops, |_| traced);
        let pass = fold_pass(&done, 1, wall, cpu);
        if traced {
            self.samples = done.into_iter().filter_map(|o| o.captured).collect();
        } else {
            let bytes: usize = (done.iter().zip(ops))
                .filter(|(op, _)| op.completed)
                .map(|(_, sc)| sc.streams * sc.file_size)
                .sum();
            self.delivered_mib.push(bytes as f64 / (1 << 20) as f64);
        }
        pass
    }

    fn extra_metrics(&self, passes: &[Pass]) -> Vec<Metric> {
        let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
        let events: u64 = passes.iter().map(|p| p.counts.events).sum();
        let delivered: f64 = self.delivered_mib.iter().sum();
        vec![
            Metric::new("body_mib_per_s", ratio(delivered, wall), "MiB/s"),
            Metric::new("sim_events_per_s", ratio(events as f64, wall), "1/s"),
        ]
    }

    fn layer_metrics(&mut self, traced: &[Pass], profile: &ProfileReport) -> Vec<Metric> {
        let pass = &traced[0];
        let busy = layers::busy_ns_per_pass(profile, traced.len());
        let mut m: Vec<Metric> = LADDER
            .iter()
            .enumerate()
            .map(|(step, (_, name))| layer(name, Self::transfer_s(traced, step, false)))
            .collect();
        // Each ladder step quadruples the size: two doublings.
        let mut growth = Vec::new();
        for lossy in [false, true] {
            for step in 1..LADDER.len() {
                let ratio = Self::transfer_s(traced, step - 1, lossy)
                    / Self::transfer_s(traced, step, lossy);
                growth.push(ratio.sqrt());
            }
        }
        m.push(layer("testbed.growth_per_doubling", median(&growth)));
        m.push(layer(
            "qlog.events_per_conn",
            ratio(pass.counts.qlog_events as f64, self.ops.len() as f64),
        ));
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
