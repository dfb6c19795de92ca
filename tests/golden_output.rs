//! Golden output: short closed-loop replays whose complete statistics
//! (`SimStats`, `OramStats`, `StashStats`) are pinned by a digest of their
//! `Debug` text.
//!
//! The replays run hmmer at L=10 under 800-cycle timing protection, so
//! about a third of the requests are dummies and the dynamic policy's DRI
//! counter moves the partitioning level throughout the run: every dummy
//! slot choice of Algorithm 1 (stash greedy, RD and HD selection, victim
//! displacement) feeds the pinned numbers. Any change to which block the
//! controller picks shows up here, even when the aggregate cycle counts of
//! the checked-in baselines happen not to move.
//!
//! The constants were captured before the eviction path was indexed; a
//! change that is meant to alter simulated output must say why and
//! recapture them (the failure message prints the full text).

use oram_cpu::ReplayMisses;
use oram_protocol::DupPolicy;
use oram_sim::{build_miss_stream, scale_profile, Engine, RunOptions, SystemConfig};
use oram_workloads::spec;

/// FNV-1a over the text: stable across platforms and toolchains.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs the replay under `policy` and returns the `Debug` text of its
/// final statistics.
fn replay(policy: DupPolicy, chain_duplication: bool) -> String {
    let mut cfg = SystemConfig::scaled_default();
    cfg.oram.levels = 10;
    cfg.oram.dup_policy = policy;
    cfg.oram.chain_duplication = chain_duplication;
    cfg.timing_protection = Some(800);
    cfg.validate().expect("valid config");
    // hmmer's scaled working set must exceed the scaled LLC, or the
    // stream ends after the cold misses: at L=10 that takes a fill target
    // above the default (hmmer then occupies about 6% of the slots).
    let opts = RunOptions {
        misses: 2_500,
        warmup_misses: 500,
        seed: 5,
        fill_target: 1.0,
        o3: None,
    };
    let scaled = scale_profile(&spec::profile("hmmer"), &cfg, opts.fill_target);
    let records = build_miss_stream(&scaled, cfg.hierarchy, &opts);
    assert_eq!(records.len(), 3_000, "miss stream length");
    let mut engine = Engine::new(cfg).expect("valid config");
    engine.prefill_working_set(scaled.working_set_blocks);
    let sim = engine.run(&mut ReplayMisses::new(records));
    let ctl = engine.controller();
    ctl.check_invariants().expect("controller invariants");
    format!("{sim:?}\n{:?}\n{:?}", ctl.stats(), ctl.stash_stats())
}

fn check(name: &str, policy: DupPolicy, chain_duplication: bool, want: u64) {
    let text = replay(policy, chain_duplication);
    let got = digest(&text);
    assert_eq!(
        got, want,
        "{name}: digest {got:#018x}, want {want:#018x}; output:\n{text}"
    );
}

#[test]
fn golden_dynamic3_timing_protected() {
    check(
        "dynamic3",
        DupPolicy::Dynamic { counter_bits: 3 },
        true,
        0x9d8f_a2c9_d6ec_80b5,
    );
}

#[test]
fn golden_dynamic3_without_chaining() {
    check(
        "dynamic3/no-chain",
        DupPolicy::Dynamic { counter_bits: 3 },
        false,
        0x11b1_fd88_d251_2ff5,
    );
}

#[test]
fn golden_off_timing_protected() {
    check("off", DupPolicy::Off, true, 0x310e_79aa_d829_14c9);
}

#[test]
fn golden_rd_only_timing_protected() {
    check("rd_only", DupPolicy::RdOnly, true, 0xbb5a_e9e8_5b4f_4e2b);
}

#[test]
fn golden_hd_only_timing_protected() {
    check("hd_only", DupPolicy::HdOnly, true, 0xe22d_6503_8f7e_753e);
}
