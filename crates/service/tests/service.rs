//! Integration tests for the service front-end, centered on the
//! obliviousness-critical coalescing invariant: a coalesced burst of
//! same-address reads issues exactly one ORAM access, every waiter
//! observes the same completion, and the bus trace is byte-identical to
//! the trace of a single uncoalesced request.

use std::sync::{Arc, Mutex};

use oram_service::{
    AddressMix, ArrivalModel, ClientSpec, SchedPolicy, ServiceConfig, ServiceResult,
    ShardedServiceSim,
};
use oram_sim::{ShardedOram, SystemConfig};
use oram_util::{BusEvent, BusObserver, MetricId, SharedTelemetry, TelemetrySink};

/// Minimal trace collector (the audit crate has a full recorder, but it
/// depends on this crate's consumers; a local collector keeps the
/// dependency graph acyclic).
#[derive(Debug, Default)]
struct TraceLog {
    events: Vec<BusEvent>,
}

impl BusObserver for TraceLog {
    fn on_event(&mut self, event: BusEvent) {
        self.events.push(event);
    }
}

/// Counter-only telemetry sink for the service metrics.
#[derive(Debug, Default)]
struct Counters {
    admitted: u64,
    coalesced: u64,
    rejected: u64,
}

impl TelemetrySink for Counters {
    fn count(&mut self, id: MetricId, delta: u64) {
        match id {
            MetricId::ServiceAdmitted => self.admitted += delta,
            MetricId::ServiceCoalesced => self.coalesced += delta,
            MetricId::ServiceRejected => self.rejected += delta,
            _ => {}
        }
    }
    fn sample(&mut self, _id: MetricId, _value: u64) {}
    fn span(&mut self, _span: &oram_util::AccessSpan) {}
    fn window(&mut self, _w: &oram_util::WindowSample) {}
}

/// A one-shard backend (the plain engine behind the dispatch front)
/// with the first `blocks` addresses prefilled.
fn one_shard(blocks: u64) -> ShardedOram {
    let mut b = ShardedOram::new(SystemConfig::small_test(), 1, 1).expect("valid config");
    b.prefill_working_set(blocks);
    b
}

/// An injection-driven config: `clients` streams that generate nothing
/// on their own.
fn inject_cfg(clients: usize, coalescing: bool) -> ServiceConfig {
    ServiceConfig {
        clients: vec![
            ClientSpec {
                arrivals: ArrivalModel::Open { mean_gap_cycles: 1_000.0 },
                addresses: AddressMix::Uniform { domain: 256 },
                write_frac: 0.0,
                requests: 0,
            };
            clients
        ],
        queue_capacity: 8,
        batch_size: 8,
        scheduler: SchedPolicy::Fcfs,
        coalescing,
        seed: 42,
    }
}

#[test]
fn coalesced_burst_issues_exactly_one_access() {
    let trace = Arc::new(Mutex::new(TraceLog::default()));
    let counters = Arc::new(Mutex::new(Counters::default()));
    let mut backend = one_shard(256);
    backend.engine_mut(0).attach_bus_observer(trace.clone());
    let mut sim = ShardedServiceSim::new(inject_cfg(4, true), backend).expect("valid config");
    sim.attach_telemetry(counters.clone() as SharedTelemetry);

    // Four clients request the same block in the same cycle.
    for c in 0..4 {
        assert!(sim.inject(c, 17, false));
    }
    sim.run();
    let (res, _) = sim.finish();
    res.validate().expect("conservation");

    // Exactly one ORAM access for the whole burst.
    assert_eq!(res.issued(), 1, "burst must coalesce into one access");
    assert_eq!(res.coalesced(), 3);
    assert_eq!(res.completed(), 4);
    assert_eq!(res.stats.misses_consumed, 1);
    let starts = trace
        .lock()
        .unwrap()
        .events
        .iter()
        .filter(|e| **e == BusEvent::AccessStart)
        .count();
    assert_eq!(starts, 1, "the bus must see exactly one access");

    // Every waiter observed the same completion: all four latencies are
    // equal (identical arrival cycle, one shared data_ready).
    let lats: Vec<u64> =
        res.clients.iter().flat_map(|c| c.latencies.iter().copied()).collect();
    assert_eq!(lats.len(), 4);
    assert!(lats.windows(2).all(|w| w[0] == w[1]), "waiters diverged: {lats:?}");

    // The service counters saw the same story.
    let c = counters.lock().unwrap();
    assert_eq!((c.admitted, c.coalesced, c.rejected), (4, 3, 0));
}

#[test]
fn coalesced_trace_is_byte_identical_to_single_access() {
    // Run A: a 4-wide coalesced burst of reads of block 17.
    let trace_a = Arc::new(Mutex::new(TraceLog::default()));
    let mut backend = one_shard(256);
    backend.engine_mut(0).attach_bus_observer(trace_a.clone());
    let mut sim = ShardedServiceSim::new(inject_cfg(4, true), backend).expect("valid config");
    for c in 0..4 {
        assert!(sim.inject(c, 17, false));
    }
    sim.run();
    let (res_a, _) = sim.finish();
    assert_eq!(res_a.issued(), 1);

    // Run B: one single request for the same block on a fresh backend.
    let trace_b = Arc::new(Mutex::new(TraceLog::default()));
    let mut backend = one_shard(256);
    backend.engine_mut(0).attach_bus_observer(trace_b.clone());
    let out = backend.serve_request(17, false, 0);
    assert!(out.end > 0);

    let a = &trace_a.lock().unwrap().events;
    let b = &trace_b.lock().unwrap().events;
    assert!(!a.is_empty());
    assert_eq!(a, b, "coalescing must not change the bus-visible trace");
}

#[test]
fn uncoalesced_burst_issues_one_access_each() {
    let mut sim =
        ShardedServiceSim::new(inject_cfg(4, false), one_shard(256)).expect("valid config");
    for c in 0..4 {
        assert!(sim.inject(c, 17, false));
    }
    sim.run();
    let (res, _) = sim.finish();
    res.validate().expect("conservation");
    assert_eq!(res.issued(), 4);
    assert_eq!(res.coalesced(), 0);
}

#[test]
fn mixed_addresses_coalesce_only_within_groups() {
    let mut sim =
        ShardedServiceSim::new(inject_cfg(4, true), one_shard(256)).expect("valid config");
    // Two groups of two: blocks 5 and 9.
    assert!(sim.inject(0, 5, false));
    assert!(sim.inject(1, 9, false));
    assert!(sim.inject(2, 5, false));
    assert!(sim.inject(3, 9, false));
    sim.run();
    let (res, _) = sim.finish();
    res.validate().expect("conservation");
    assert_eq!(res.issued(), 2, "one access per distinct block");
    assert_eq!(res.coalesced(), 2);
}

#[test]
fn generated_workload_is_deterministic_across_reconstruction() {
    let run = || {
        let mut cfg = ServiceConfig::symmetric_open(4, 50, 1_500.0, 256, 0xFEED);
        cfg.scheduler = SchedPolicy::OldestFirst;
        let mut sim = ShardedServiceSim::new(cfg, one_shard(256)).expect("valid config");
        sim.run();
        let (res, _) = sim.finish();
        res.validate().expect("conservation");
        res
    };
    assert_eq!(run(), run(), "same seed must reproduce bit-identical results");
}

#[test]
fn rejected_requests_are_counted_by_telemetry() {
    let counters = Arc::new(Mutex::new(Counters::default()));
    let mut cfg = inject_cfg(1, false);
    cfg.queue_capacity = 2;
    let mut sim = ShardedServiceSim::new(cfg, one_shard(256)).expect("valid config");
    sim.attach_telemetry(counters.clone() as SharedTelemetry);
    assert!(sim.inject(0, 1, false));
    assert!(sim.inject(0, 2, false));
    assert!(!sim.inject(0, 3, false));
    sim.run();
    let (res, _) = sim.finish();
    res.validate().expect("conservation");
    let c = counters.lock().unwrap();
    assert_eq!((c.admitted, c.rejected), (2, 1));
}

/// FNV-1a over the text: stable across platforms and toolchains.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The engine statistics plus every client's issued count, serve-class
/// breakdown and completion-order latencies, as text.
fn outcome_text(res: &ServiceResult) -> String {
    let mut text = format!("{:?}\n", res.stats);
    for (i, c) in res.clients.iter().enumerate() {
        text.push_str(&format!(
            "client {i}: issued {} served {:?} latencies {:?}\n",
            c.issued, c.served, c.latencies
        ));
    }
    text
}

/// Pins the one-shard service output: the same leaders, coalescing
/// groups and engine request stream as the single-engine simulator this
/// path replaced, whose output the constants were captured from. Queue
/// waits are left out: they are measured at the batch's dispatch clock.
/// A change meant to alter simulated output must say why and recapture
/// them (the failure message prints the full text).
#[test]
fn one_shard_service_output_matches_golden() {
    for (policy, want) in [
        (SchedPolicy::Fcfs, 0x3d6a_bb6a_88eb_ba81u64),
        (SchedPolicy::RoundRobin, 0x0076_95a7_8c9f_5752),
    ] {
        let mut cfg = ServiceConfig::symmetric_open(3, 40, 2_000.0, 512, 11);
        cfg.scheduler = policy;
        let mut sim = ShardedServiceSim::new(cfg, one_shard(512)).expect("valid config");
        sim.run();
        let (res, _) = sim.finish();
        res.validate().expect("conservation");
        let text = outcome_text(&res);
        let got = digest(&text);
        assert_eq!(
            got,
            want,
            "{}: digest {got:#018x}, want {want:#018x}; output:\n{text}",
            policy.name()
        );
    }
}
