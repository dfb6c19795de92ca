//! The closed-loop LLC-miss replay workload: a workload profile's miss
//! stream driven through `Engine::run`, warm-up first, as the paper's
//! experiments (and `run_workload`) do.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oram_cpu::{MissRecord, ReplayMisses};
use oram_protocol::{BlockAddr, DupPolicy, OramController, Request};
use oram_sim::{
    build_miss_stream, scale_profile, DramBackend, Engine, RunOptions, SimStats, SystemConfig,
};
use oram_util::{AccessSpan, MetricId, TelemetrySink, WindowSample};
use oram_workloads::spec;

use crate::stats::{chunk_ms, digest, median_per_chunk, peak_rss_mb, quantile};
use crate::trace::{span, Breakdown, TimedBackend, TimedStream, Tracer};
use crate::{check_eq1, Outcome};

/// A replay workload.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// SPEC profile name.
    pub profile: &'static str,
    /// Tree depth `L`.
    pub levels: u32,
    /// Duplication policy.
    pub policy: DupPolicy,
    /// Timing-protection slot period in CPU cycles.
    pub timing: Option<u64>,
    /// Warm-up misses run before the measured region.
    pub warmup: u64,
    /// Measured misses per second of `--seconds`. A fixed rate, not a
    /// measured one, so the simulated output depends only on the seed
    /// and the run length.
    pub misses_per_s: u64,
    /// Identical timed passes the measured misses are split into; a
    /// 1,000-miss chunk's host time is its median over the passes.
    pub passes: u64,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
}

/// hmmer at L=14 with dynamic partitioning (3-bit DRI counter) under
/// 800-cycle timing protection.
pub const DYN_TP: ReplaySpec = ReplaySpec {
    profile: "hmmer",
    levels: 14,
    policy: DupPolicy::Dynamic { counter_bits: 3 },
    timing: Some(800),
    warmup: 2_000,
    misses_per_s: 18_000,
    passes: 3,
    setups: 5,
};

type ReplayEngine = Engine<TimedBackend<DramBackend>>;

/// The system a replay runs on. The seed moves the ORAM's label draws
/// as well as the miss stream.
fn system(spec: &ReplaySpec, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::scaled_default();
    cfg.oram.levels = spec.levels;
    cfg.oram.dup_policy = spec.policy;
    cfg.oram.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    cfg.timing_protection = spec.timing;
    cfg
}

/// Everything built before the first timed request.
struct Setup {
    engine: ReplayEngine,
    /// Warm-up misses followed by the measured ones.
    records: Vec<MissRecord>,
    working_set: u64,
    seconds: f64,
}

fn setup(
    spec: &ReplaySpec,
    seed: u64,
    misses: u64,
    tracer: &Option<Arc<Tracer>>,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let cfg = system(spec, seed);
    cfg.validate()?;
    let opts = RunOptions { misses, warmup_misses: spec.warmup, seed, ..RunOptions::quick() };
    let scaled = scale_profile(&spec::profile(spec.profile), &cfg, opts.fill_target);
    let records = {
        let _s = span(tracer, "workloads.gen");
        build_miss_stream(&scaled, cfg.hierarchy, &opts)
    };
    if records.len() as u64 != spec.warmup + misses {
        return Err(format!(
            "miss stream has {} of {} misses",
            records.len(),
            spec.warmup + misses
        ));
    }
    let mut engine = {
        let _s = span(tracer, "protocol.prefill");
        let backend = TimedBackend::new(DramBackend::new(cfg.dram)?, tracer.clone());
        let mut engine = Engine::with_backend(cfg, backend)?;
        engine.prefill_working_set(scaled.working_set_blocks);
        engine
    };
    {
        let _s = span(tracer, "sim.warmup");
        let warm = records[..spec.warmup as usize].to_vec();
        engine.run(&mut TimedStream::new(ReplayMisses::new(warm), spec.warmup, tracer.clone()));
    }
    Ok(Setup {
        engine,
        records,
        working_set: scaled.working_set_blocks,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// The measured region of one run.
struct Measured {
    before: SimStats,
    after: SimStats,
    wall_s: f64,
    chunks_ms: Vec<f64>,
}

fn measure(spec: &ReplaySpec, s: &mut Setup, tracer: &Option<Arc<Tracer>>) -> Measured {
    let measured = s.records[spec.warmup as usize..].to_vec();
    let n = measured.len() as u64;
    let before = s.engine.stats();
    let mut stream = TimedStream::new(ReplayMisses::new(measured), n, tracer.clone());
    let t = Instant::now();
    let after = {
        let _s = span(tracer, "sim.run");
        s.engine.run(&mut stream)
    };
    Measured {
        before,
        after,
        wall_s: t.elapsed().as_secs_f64(),
        chunks_ms: chunk_ms(&stream.marks),
    }
}

/// Collects each real access's simulated latency (arrival to data-ready).
#[derive(Debug, Default)]
struct LatencySink(Vec<f64>);

impl TelemetrySink for LatencySink {
    fn count(&mut self, _id: MetricId, _delta: u64) {}
    fn sample(&mut self, _id: MetricId, _value: u64) {}
    fn span(&mut self, span: &AccessSpan) {
        if span.real {
            self.0.push((span.data_ready - span.arrival) as f64);
        }
    }
    fn window(&mut self, _w: &WindowSample) {}
}

/// End-of-run checks on an engine: Eq. 1 exact, the controller's
/// invariants, no stash overflow.
fn engine_checks(o: &mut Outcome, engine: &ReplayEngine, m: &Measured) {
    o.check("eq1_exact", check_eq1(&m.after));
    o.check("controller_invariants", engine.controller().check_invariants());
    let overflows = engine.controller().stash_stats().overflows;
    o.check(
        "no_stash_overflow",
        if overflows == 0 { Ok(()) } else { Err(format!("{overflows} stash overflows")) },
    );
}

/// Measured misses of one pass of a `seconds`-long run.
fn misses_for(spec: &ReplaySpec, seconds: u64) -> u64 {
    spec.misses_per_s * seconds.max(1) / spec.passes
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &ReplaySpec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let misses = misses_for(spec, seconds);
    let mut o = Outcome::default();
    let mut setup_s = Vec::new();

    // Set-up 1 serves the untimed latency pass: the same stream with a
    // latency sink attached after warm-up. Its simulated output must
    // match the timed run's exactly.
    let mut a = setup(spec, seed, misses, &None)?;
    setup_s.push(a.seconds);
    let sink = Arc::new(Mutex::new(LatencySink::default()));
    a.engine.attach_telemetry(sink.clone(), 0);
    let latency_pass = measure(spec, &mut a, &None);
    a.engine.detach_telemetry();
    drop(a);

    // The timed passes: identical set-ups over the same stream.
    let mut first: Option<Measured> = None;
    let (mut wall_s, mut pass_chunks, mut identical) = (Vec::new(), Vec::new(), true);
    for _ in 0..spec.passes {
        let mut b = setup(spec, seed, misses, &None)?;
        setup_s.push(b.seconds);
        let mut m = measure(spec, &mut b, &None);
        wall_s.push(m.wall_s);
        pass_chunks.push(std::mem::take(&mut m.chunks_ms));
        match &first {
            None => {
                engine_checks(&mut o, &b.engine, &m);
                first = Some(m);
            }
            Some(f) => identical &= f.after == m.after,
        }
    }
    let m = first.ok_or("no passes")?;
    o.check(
        "latency_pass_identical",
        if latency_pass.after == m.after { Ok(()) } else { Err("simulated stats differ".into()) },
    );
    o.check(
        "passes_identical",
        if identical { Ok(()) } else { Err("identical passes gave different stats".into()) },
    );
    while setup_s.len() < spec.setups {
        setup_s.push(setup(spec, seed, misses, &None)?.seconds);
    }

    let n = m.after.misses_consumed - m.before.misses_consumed;
    let cycles = m.after.total_cycles - m.before.total_cycles;
    let mut lat = std::mem::take(&mut sink.lock().expect("latency sink poisoned").0);
    let mut chunks = median_per_chunk(&pass_chunks);
    o.attempted = n;
    o.metric(
        "throughput_req_per_s",
        (n * spec.passes) as f64 / wall_s.iter().sum::<f64>(),
        "req/s",
        (n * spec.passes) as usize,
    );
    o.metric("chunk_ms.p50", quantile(&mut chunks, 0.50), "ms", chunks.len());
    o.metric("chunk_ms.p90", quantile(&mut chunks, 0.90), "ms", chunks.len());
    o.metric("setup_s", quantile(&mut setup_s, 0.5), "s", setup_s.len());
    o.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    o.metric("sim_cycles_per_req", cycles as f64 / n as f64, "cycles", n as usize);
    o.metric("sim_latency_cycles.p50", quantile(&mut lat, 0.50), "cycles", lat.len());
    o.metric("sim_latency_cycles.p99", quantile(&mut lat, 0.99), "cycles", lat.len());
    o.digest = digest(&format!("{:?}", m.after));
    Ok(o)
}

/// The traced run: every per-layer metric.
pub fn run_traced(spec: &ReplaySpec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let misses = misses_for(spec, seconds);
    let mut o = Outcome::default();

    let mut u = setup(spec, seed, misses, &None)?;
    let untraced = measure(spec, &mut u, &None);
    drop(u);

    let tracer = Tracer::new(1 << 20);
    let traced = Some(tracer.clone());
    let outside = Instant::now();
    let root = tracer.open("bench.root");
    let mut s = setup(spec, seed, misses, &traced)?;
    let plb_before = s.engine.controller().plb_stats();
    let (batches_before, blocks_before) = (s.engine.backend().batches, s.engine.backend().blocks);
    let m = measure(spec, &mut s, &traced);
    let plb_after = s.engine.controller().plb_stats();
    let (batches, blocks) =
        (s.engine.backend().batches - batches_before, s.engine.backend().blocks - blocks_before);
    let mismatches = protocol_replay(spec, seed, &s, &traced)?;
    drop(root);
    let outside_ns = outside.elapsed().as_nanos() as u64;

    engine_checks(&mut o, &s.engine, &m);
    o.check(
        "traced_run_identical",
        if m.after == untraced.after {
            Ok(())
        } else {
            Err("tracing changed simulated stats".into())
        },
    );
    o.check(
        "protocol_reads_match_reference",
        if mismatches == 0 { Ok(()) } else { Err(format!("{mismatches} reads differ")) },
    );

    let spans = tracer.spans();
    let whole = Breakdown::of(&spans, 0)?;
    let run_ix = spans.iter().position(|x| x.name == "sim.run").ok_or("no sim.run span")?;
    let region = Breakdown::of(&spans, run_ix)?;
    o.conservation(&whole, outside_ns);

    let n = m.after.misses_consumed - m.before.misses_consumed;
    let d = delta(&m.before, &m.after);
    let per = |x: u64| x as f64 / n as f64;
    let durations = |name: &str, from: u64, to: u64| -> Vec<f64> {
        spans
            .iter()
            .filter(|x| x.name == name && x.start_ns >= from && x.end_ns <= to)
            .map(|x| (x.end_ns - x.start_ns) as f64)
            .collect()
    };
    let run_span = spans[run_ix];
    let mut batch_ns = durations("storage.batch", run_span.start_ns, run_span.end_ns);
    let mut access_ns = durations("protocol.access", 0, u64::MAX);
    let one =
        |name: &str| spans.iter().find(|x| x.name == name).map_or(0, |x| x.end_ns - x.start_ns);
    let plb_hits = plb_after.hits - plb_before.hits;
    let plb_misses = plb_after.misses - plb_before.misses;
    let dram = &d.dram;
    let row_total = dram.row_hits + dram.row_misses + dram.row_conflicts;

    o.attempted = n;
    o.metric(
        "workloads.gen_ns_per_miss",
        one("workloads.gen") as f64 / s.records.len() as f64,
        "ns",
        1,
    );
    o.metric("protocol.access_ns.p50", quantile(&mut access_ns, 0.50), "ns", access_ns.len());
    o.metric("protocol.access_ns.p99", quantile(&mut access_ns, 0.99), "ns", access_ns.len());
    o.metric("protocol.prefill_s", one("protocol.prefill") as f64 * 1e-9, "s", 1);
    o.metric("protocol.evictions_per_req", per(d.oram.evictions), "count", n as usize);
    o.metric(
        "protocol.stash_live_max",
        s.engine.controller().stash_stats().max_live as f64,
        "blocks",
        1,
    );
    o.metric(
        "protocol.onchip_hit_rate",
        ratio(d.oram.stash_served + d.oram.treetop_served, d.oram.real_requests),
        "fraction",
        n as usize,
    );
    o.metric(
        "protocol.shadow_advanced_rate",
        ratio(d.oram.shadow_advanced, d.oram.real_requests),
        "fraction",
        n as usize,
    );
    o.metric(
        "protocol.plb_hit_rate",
        ratio(plb_hits, plb_hits + plb_misses),
        "fraction",
        n as usize,
    );
    o.metric("protocol.plb_miss_per_req", per(plb_misses), "count", n as usize);
    o.metric("storage.batch_ns.p50", quantile(&mut batch_ns, 0.50), "ns", batch_ns.len());
    o.metric("storage.batch_ns.p99", quantile(&mut batch_ns, 0.99), "ns", batch_ns.len());
    o.metric("storage.batches_per_req", per(batches), "count", n as usize);
    o.metric("storage.blocks_per_req", per(blocks), "count", n as usize);
    o.metric(
        "storage.busy_frac",
        region.layer("storage") as f64 / region.wall_ns as f64,
        "fraction",
        1,
    );
    o.metric("dram.row_hit_rate", ratio(dram.row_hits, row_total), "fraction", row_total as usize);
    o.metric("sim.self_ns_per_req", region.unattributed_ns as f64 / n as f64, "ns", n as usize);
    o.metric("sim.dummy_per_req", per(d.dummy_requests), "count", n as usize);
    o.not_exercised(&[
        ("shard.thread_speedup", "x"),
        ("shard.imbalance", "x"),
        ("service.step_ns.p50", "ns"),
        ("service.step_ns.p99", "ns"),
        ("service.step_self_ns_per_req", "ns"),
        ("service.coalesced_frac", "fraction"),
        ("obsv.record_ns.p50", "ns"),
        ("obsv.busy_frac", "fraction"),
    ]);
    o.metric(
        "trace.overhead_frac",
        region.wall_ns as f64 * 1e-9 / untraced.wall_s - 1.0,
        "fraction",
        1,
    );
    o.metric(
        "trace.unattributed_frac",
        whole.unattributed_ns as f64 / whole.wall_ns as f64,
        "fraction",
        1,
    );
    o.digest = digest(&format!("{:?}", m.after));
    o.spans = Some(tracer);
    Ok(o)
}

/// Replays the run's exact request sequence (warm-up and measured)
/// through a standalone controller with the same configuration, a
/// `protocol.access` span around each access. Writes carry distinct
/// values; returns how many reads disagreed with the reference model
/// (the last value written, else the prefill value).
fn protocol_replay(
    spec: &ReplaySpec,
    seed: u64,
    s: &Setup,
    tracer: &Option<Arc<Tracer>>,
) -> Result<u64, String> {
    let prefill_value = |a: u64| a.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut ctl = {
        let _s = span(tracer, "protocol.replay_prefill");
        let mut ctl = OramController::new(system(spec, seed).oram)?;
        ctl.prefill((0..s.working_set).map(|a| (BlockAddr::new(a), prefill_value(a))));
        ctl
    };
    let mut written: HashMap<u64, u64> = HashMap::new();
    let mut mismatches = 0;
    for (i, m) in s.records.iter().enumerate() {
        let addr = BlockAddr::new(m.block_addr);
        if let Some(t) = tracer {
            t.set_request(i as u64);
        }
        if m.is_write {
            let value = i as u64 + 1;
            let _s = span(tracer, "protocol.access");
            ctl.access(Request::write(addr, value));
            written.insert(m.block_addr, value);
        } else {
            let got = {
                let _s = span(tracer, "protocol.access");
                ctl.access(Request::read(addr)).value
            };
            let want = written.get(&m.block_addr).copied().unwrap_or_else(|| {
                if m.block_addr < s.working_set {
                    prefill_value(m.block_addr)
                } else {
                    0
                }
            });
            mismatches += u64::from(got != want);
        }
    }
    ctl.check_invariants().map_err(|e| format!("standalone controller: {e}"))?;
    Ok(mismatches)
}

/// Counter deltas of the measured region.
fn delta(before: &SimStats, after: &SimStats) -> SimStats {
    let mut d = *after;
    let (a, b) = (&after.oram, &before.oram);
    d.dummy_requests -= before.dummy_requests;
    d.oram.evictions = a.evictions - b.evictions;
    d.oram.real_requests = a.real_requests - b.real_requests;
    d.oram.stash_served = a.stash_served - b.stash_served;
    d.oram.treetop_served = a.treetop_served - b.treetop_served;
    d.oram.shadow_advanced = a.shadow_advanced - b.shadow_advanced;
    d.dram.row_hits -= before.dram.row_hits;
    d.dram.row_misses -= before.dram.row_misses;
    d.dram.row_conflicts -= before.dram.row_conflicts;
    d
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
