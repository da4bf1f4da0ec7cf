//! `wild_scan`: a 1M-domain synthesized population probed from every
//! vantage point, [`REPETITIONS`] times, through the sharded
//! `rq_wild::scan_with`. It touches no QUIC code: the control workload
//! for every stack optimisation.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rq_obs::Registry;
use rq_par::{ProfileReport, SweepRunner};
use rq_sim::SimRng;
use rq_wild::{probe, probe_rng, scan_with, Population, VANTAGES};

use crate::layers::{self, layer, StackCounts};
use crate::measure::{debug_digest, ratio, timed};
use crate::{Metric, Pass, Workload};

const DOMAINS: usize = 1_000_000;
const REPETITIONS: usize = 2;
/// Every `PROBE_SAMPLE_STEP`-th domain is probed in the timed
/// `rq_wild::probe` sample.
const PROBE_SAMPLE_STEP: usize = 10;
/// Seed-derivation tags of the population and the scan.
const POPULATION_STREAM: u64 = 0x0050_4f50;
const SCAN_STREAM: u64 = 0x5343_414e;

pub struct Scan {
    population: Population,
    scan_seed: u64,
}

impl Scan {
    pub fn new(seed: u64) -> Self {
        Scan {
            population: Population::synthesize(
                DOMAINS,
                &mut SimRng::derive(seed, &[POPULATION_STREAM]),
            ),
            scan_seed: SimRng::derive(seed, &[SCAN_STREAM]).next_u64(),
        }
    }

    fn probes_per_pass(&self) -> u64 {
        (self.population.len() * VANTAGES.len() * REPETITIONS) as u64
    }
}

impl Workload for Scan {
    fn warm_up(&mut self, runner: &SweepRunner) {
        let small = Population::synthesize(20_000, &mut SimRng::new(self.scan_seed));
        scan_with(&small, 1, self.scan_seed, runner);
    }

    fn pass(&mut self, runner: &SweepRunner, _traced: bool) -> Pass {
        let (run, wall, cpu) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                scan_with(&self.population, REPETITIONS, self.scan_seed, runner)
            }))
        });
        let (digest, conns) = match &run {
            Ok(report) => {
                let mut reg = Registry::default();
                report.export_metrics("wild/", &mut reg);
                (debug_digest(report), reg.counter("wild/handshakes_ok"))
            }
            Err(_) => (0, 0),
        };
        Pass {
            wall_s: wall,
            cpu_s: cpu,
            digests: vec![digest],
            unit_ops: vec![self.probes_per_pass()],
            conns,
            op_ms: Vec::new(),
            counts: StackCounts::default(),
        }
    }

    fn extra_metrics(&self, passes: &[Pass]) -> Vec<Metric> {
        let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
        vec![Metric::new(
            "probes_per_s",
            ratio((self.probes_per_pass() * passes.len() as u64) as f64, wall),
            "1/s",
        )]
    }

    fn layer_metrics(&mut self, traced: &[Pass], profile: &ProfileReport) -> Vec<Metric> {
        let vantage = VANTAGES[0];
        let sample: Vec<usize> = (0..self.population.len())
            .step_by(PROBE_SAMPLE_STEP)
            .collect();
        let t = Instant::now();
        for &i in &sample {
            let rng = probe_rng(self.scan_seed, vantage, 0, i);
            black_box(probe(&self.population.domains[i], vantage, rng));
        }
        let probe_ns = ratio(t.elapsed().as_nanos() as f64, sample.len() as f64);
        let busy = layers::busy_ns_per_pass(profile, traced.len());
        let mut m = vec![
            layer("wild.probe_ns", probe_ns),
            layer(
                "wild.aggregate_share",
                1.0 - ratio(probe_ns * self.probes_per_pass() as f64, busy),
            ),
        ];
        m.extend(layers::par_metrics(profile));
        m
    }
}
