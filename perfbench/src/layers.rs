//! Per-layer metrics. Every number here comes from the benchmark's own
//! files: registry snapshots the stack already exports, the sweep
//! engine's `ProfileSink`, and timed calls into each layer's public
//! functions over packets captured from a traced pass.

use std::hint::black_box;
use std::time::Instant;

use rq_obs::{Metric as RegistryMetric, Registry};
use rq_par::ProfileReport;
use rq_testbed::RunResult;
use rq_wire::{classify_datagram, Frame, PlainPacket};

use crate::measure::{median, ratio};
use crate::Metric;

/// Every per-layer metric, in print order, with its unit. A workload
/// reports the ones its layers exercise; the rest print as 0.
pub const LAYER_METRICS: [(&str, &str); 33] = [
    ("testbed.run_full_ms_p50", "ms"),
    ("testbed.run_0rtt_ms_p50", "ms"),
    ("testbed.transfer_s.256k", "s"),
    ("testbed.transfer_s.1m", "s"),
    ("testbed.transfer_s.4m", "s"),
    ("testbed.growth_per_doubling", "ratio"),
    ("par.busy_share", "share"),
    ("par.idle_share", "share"),
    ("par.claim_share", "share"),
    ("par.merge_share", "share"),
    ("par.mean_chunk", "count"),
    ("sim.events_processed", "count"),
    ("sim.events_stale_share", "share"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.queue_depth_peak", "count"),
    ("quic.packets_sealed", "count"),
    ("quic.packets_opened", "count"),
    ("quic.amp_stalls", "count"),
    ("quic.host_us_per_packet", "us"),
    ("recovery.packets_lost", "count"),
    ("recovery.pto_expirations", "count"),
    ("recovery.cc_transitions", "count"),
    ("tls.tag_ns_per_packet", "ns"),
    ("tls.tag_share", "share"),
    ("wire.decode_ns_per_datagram", "ns"),
    ("wire.encode_ns_per_packet", "ns"),
    ("wire.ack_ranges_per_ack", "count"),
    ("wire.ack_frame_bytes_mean", "B"),
    ("qlog.events_per_conn", "count"),
    ("qlog.to_json_ns_per_event", "ns"),
    ("wild.probe_ns", "ns"),
    ("wild.aggregate_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Builds a layer metric, taking the unit from [`LAYER_METRICS`].
pub fn layer(name: &'static str, value: f64) -> Metric {
    let unit = LAYER_METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared layer metric"))
        .1;
    Metric { name, value, unit }
}

/// Simulated-stack counters of one pass, folded from the registry
/// snapshots on `RunResult.metrics` / `ServerLoadReport.metrics`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StackCounts {
    pub events: u64,
    pub stale: u64,
    pub queue_peak: u64,
    pub sealed: u64,
    pub opened: u64,
    pub amp_stalls: u64,
    pub lost: u64,
    pub pto: u64,
    pub cc: u64,
    /// qlog events on both endpoints (filled from the run's logs, not
    /// the registry).
    pub qlog_events: u64,
}

impl StackCounts {
    pub fn of(reg: &Registry) -> Self {
        let mut c = StackCounts::default();
        for (name, metric) in reg.iter() {
            let v = match metric {
                RegistryMetric::Counter(v) => *v,
                RegistryMetric::Gauge { peak, .. } => (*peak).max(0) as u64,
                RegistryMetric::Histogram(_) => continue,
            };
            match name {
                "sim/events/processed" => c.events += v,
                "sim/events/stale" => c.stale += v,
                "sim/queue_depth" => c.queue_peak = c.queue_peak.max(v),
                _ if name.starts_with("quic/") => {
                    if name.contains("/packets_sealed/") {
                        c.sealed += v;
                    } else if name.contains("/packets_opened/") {
                        c.opened += v;
                    } else if name.ends_with("/amp_stalls") {
                        c.amp_stalls += v;
                    } else if name.ends_with("/packets_lost") {
                        c.lost += v;
                    } else if name.ends_with("/pto_expirations") {
                        c.pto += v;
                    } else if name.ends_with("/cc_transitions") {
                        c.cc += v;
                    }
                }
                _ => {}
            }
        }
        c
    }

    pub fn add(&mut self, o: &StackCounts) {
        self.events += o.events;
        self.stale += o.stale;
        self.queue_peak = self.queue_peak.max(o.queue_peak);
        self.sealed += o.sealed;
        self.opened += o.opened;
        self.amp_stalls += o.amp_stalls;
        self.lost += o.lost;
        self.pto += o.pto;
        self.cc += o.cc;
        self.qlog_events += o.qlog_events;
    }
}

/// Worker busy nanoseconds per traced pass, from the sweep profile.
pub fn busy_ns_per_pass(p: &ProfileReport, passes: usize) -> f64 {
    ratio(p.busy_ns as f64, passes as f64)
}

/// `rq-par` shares of `workers x wall` and the mean claimed chunk.
pub fn par_metrics(p: &ProfileReport) -> Vec<Metric> {
    let share = |ns: u64| ratio(ns as f64, p.worker_wall_ns as f64);
    vec![
        layer("par.busy_share", share(p.busy_ns)),
        layer("par.idle_share", share(p.idle_ns)),
        layer("par.claim_share", share(p.claim_ns)),
        layer("par.merge_share", share(p.merge_ns)),
        layer("par.mean_chunk", p.mean_chunk()),
    ]
}

/// `rq-sim`, `rq-quic` and `rq-recovery` metrics of one pass. Host
/// costs divide the pass's worker busy time by the layer's work count.
pub fn stack_metrics(c: &StackCounts, busy_ns: f64) -> Vec<Metric> {
    vec![
        layer("sim.events_processed", c.events as f64),
        layer(
            "sim.events_stale_share",
            ratio(c.stale as f64, c.events as f64),
        ),
        layer("sim.host_ns_per_event", ratio(busy_ns, c.events as f64)),
        layer("sim.queue_depth_peak", c.queue_peak as f64),
        layer("quic.packets_sealed", c.sealed as f64),
        layer("quic.packets_opened", c.opened as f64),
        layer("quic.amp_stalls", c.amp_stalls as f64),
        layer(
            "quic.host_us_per_packet",
            ratio(busy_ns / 1e3, (c.sealed + c.opened) as f64),
        ),
        layer("recovery.packets_lost", c.lost as f64),
        layer("recovery.pto_expirations", c.pto as f64),
        layer("recovery.cc_transitions", c.cc as f64),
    ]
}

/// One traced run kept for replay: its result (qlogs) and its trace
/// (captured datagram payloads).
pub struct Captured {
    pub result: RunResult,
    pub trace: rq_sim::Trace,
}

/// Short-header connection-ID length every testbed endpoint uses.
const SHORT_DCID_LEN: usize = 8;
/// Timed repetitions of each replay loop; the median is reported.
const REPLAY_ROUNDS: usize = 3;

/// Median over [`REPLAY_ROUNDS`] of the nanoseconds `f` takes per item.
fn ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..REPLAY_ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ratio(median(&rounds), items as f64)
}

/// `rq-wire`, `rq-tls` and `rq-qlog` metrics from replaying the
/// captured runs: every datagram is classified, every packet re-encoded
/// and its tag sealed and verified, every qlog rendered to JSON.
/// `sealed_per_pass` and `busy_ns` turn the per-packet tag cost into the
/// share of a pass spent on tags.
pub fn replay_metrics(samples: &[Captured], sealed_per_pass: u64, busy_ns: f64) -> Vec<Metric> {
    let datagrams: Vec<&[u8]> = samples
        .iter()
        .flat_map(|s| s.trace.datagrams.iter())
        .filter_map(|d| d.payload.as_deref())
        .collect();
    let decode_ns = ns_per_item(datagrams.len(), || {
        for d in &datagrams {
            let _ = black_box(classify_datagram(black_box(d), SHORT_DCID_LEN));
        }
    });

    let mut packets = Vec::new();
    for d in &datagrams {
        let mut rest = *d;
        while !rest.is_empty() {
            let Ok((pkt, tag, used)) = PlainPacket::decode(rest, SHORT_DCID_LEN) else {
                break;
            };
            packets.push((pkt, tag));
            rest = &rest[used..];
        }
    }
    let encode_ns = ns_per_item(packets.len(), || {
        for (pkt, tag) in &packets {
            black_box(pkt.to_bytes(tag));
        }
    });

    let (mut acks, mut ranges, mut ack_bytes) = (0usize, 0usize, 0usize);
    for f in packets.iter().flat_map(|(p, _)| p.frames.iter()) {
        if let Frame::Ack(a) = f {
            acks += 1;
            ranges += 1 + a.ranges.len();
            ack_bytes += f.encoded_len();
        }
    }

    // The bytes a packet tag covers: its encoded frames (the stack's
    // `packet_auth_bytes`).
    let auth: Vec<(u64, Vec<u8>)> = packets
        .iter()
        .map(|(p, _)| {
            let mut buf = Vec::with_capacity(p.payload_len());
            for f in &p.frames {
                f.encode(&mut buf);
            }
            (p.header.pn, buf)
        })
        .collect();
    let key = [0x5a; 32];
    let tag_ns = ns_per_item(auth.len(), || {
        for (pn, bytes) in &auth {
            let tag = rq_tls::seal_tag(&key, *pn, black_box(bytes));
            black_box(rq_tls::verify_tag(&key, *pn, bytes, &tag));
        }
    });

    let logs: Vec<&rq_qlog::EventLog> = samples
        .iter()
        .flat_map(|s| [&s.result.client_log, &s.result.server_log])
        .collect();
    let events: usize = logs.iter().map(|l| l.events.len()).sum();
    let json_ns = ns_per_item(events, || {
        for l in &logs {
            black_box(l.to_json());
        }
    });

    vec![
        layer("tls.tag_ns_per_packet", tag_ns),
        layer(
            "tls.tag_share",
            ratio(tag_ns * sealed_per_pass as f64, busy_ns),
        ),
        layer("wire.decode_ns_per_datagram", decode_ns),
        layer("wire.encode_ns_per_packet", encode_ns),
        layer("wire.ack_ranges_per_ack", ratio(ranges as f64, acks as f64)),
        layer(
            "wire.ack_frame_bytes_mean",
            ratio(ack_bytes as f64, acks as f64),
        ),
        layer("qlog.to_json_ns_per_event", json_ns),
    ]
}
