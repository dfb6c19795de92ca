//! Micro-benchmarks of the ORAM protocol layer: controller access
//! throughput per duplication policy, stash primitives, an eviction-heavy
//! duplication scenario, a stash-capacity sweep — and a hard
//! zero-allocation check over the steady-state access loop.
//!
//! Run with `cargo bench --bench protocol`. The allocation check exits
//! non-zero if the hot loop ever touches the heap again, so CI can use
//! this bench as a regression gate.

use oram_bench::{bench, CountingAlloc};
use oram_protocol::{
    Block, BlockAddr, DupPolicy, LeafLabel, OramConfig, OramController, PosMapSelect, Request,
    Stash,
};
use oram_util::Rng64;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const POLICIES: [(&str, DupPolicy); 4] = [
    ("tiny", DupPolicy::Off),
    ("rd_dup", DupPolicy::RdOnly),
    ("hd_dup", DupPolicy::HdOnly),
    ("dynamic3", DupPolicy::Dynamic { counter_bits: 3 }),
];

fn controller_access() {
    println!("-- controller access throughput --");
    for (name, policy) in POLICIES {
        let cfg = OramConfig::small_test().with_levels(10).with_dup_policy(policy);
        let mut ctl = OramController::new(cfg).unwrap();
        ctl.prefill((0..400u64).map(|i| (BlockAddr::new(i), i)));
        let mut i = 0u64;
        let r = bench(&format!("controller_access/{name}"), 20, 2000, || {
            i = (i + 17) % 400;
            black_box(ctl.access(Request::read(BlockAddr::new(i))))
        });
        println!("{r}");
    }
}

fn stash_ops() {
    println!("-- stash primitives --");
    let mut stash = Stash::new(256);
    let mut i = 0u64;
    let r = bench("stash/insert_lookup_evict", 20, 10_000, || {
        i += 1;
        let addr = BlockAddr::new(i % 512);
        stash.insert(Block::real(addr, LeafLabel::new(i % 64), i, 0));
        black_box(stash.lookup(addr));
        if stash.occupied() > 200 {
            stash.mark_evicted(addr);
        }
    });
    println!("{r}");
}

fn eviction_path() {
    println!("-- access with evictions, L=12 --");
    let cfg = OramConfig::small_test().with_levels(12).with_dup_policy(DupPolicy::RdOnly);
    let mut ctl = OramController::new(cfg).unwrap();
    ctl.prefill((0..1500u64).map(|i| (BlockAddr::new(i), i)));
    let mut i = 0u64;
    let r = bench("eviction/access_with_eviction_L12", 20, 2000, || {
        i = (i + 31) % 1500;
        black_box(ctl.access(Request::read(BlockAddr::new(i))))
    });
    println!("{r}");
}

/// An eviction-heavy access mix shaped like the `replay-dyn-tp` benchmark
/// workload: L=14, Z=5, M=200, dynamic partitioning with a 3-bit DRI
/// counter, about 30% dummy requests (timing protection), 60% of the real
/// requests to a hot tenth of the working set, 30% writes. After warmup
/// the stash is full of shadows, so a path write offers up to about 200
/// duplication candidates and every insert displaces a victim.
fn eviction_dyn_tp() {
    println!("-- eviction-heavy access, replay-dyn-tp shape (L=14 Z=5 M=200 dynamic3) --");
    let cfg = OramConfig::paper_table1()
        .with_levels(14)
        .with_dup_policy(DupPolicy::Dynamic { counter_bits: 3 });
    let mut ctl = OramController::new(cfg).unwrap();
    const WORKING_SET: u64 = 8192;
    ctl.prefill((0..WORKING_SET).map(|i| (BlockAddr::new(i), i)));
    let mut rng = Rng64::seed_from_u64(7);
    let mut step = move |ctl: &mut OramController| {
        if rng.gen_bool(0.3) {
            return ctl.dummy_access();
        }
        let addr = if rng.gen_bool(0.6) {
            rng.below(WORKING_SET / 10)
        } else {
            rng.below(WORKING_SET)
        };
        let addr = BlockAddr::new(addr);
        if rng.gen_bool(0.3) {
            ctl.access(Request::write(addr, addr.raw()))
        } else {
            ctl.access(Request::read(addr))
        }
    };
    for _ in 0..20_000 {
        black_box(step(&mut ctl));
    }
    let r = bench("eviction/dyn_tp_L14_M200", 20, 2000, || black_box(step(&mut ctl)));
    println!("{r}");
    let stash = ctl.stash();
    println!(
        "  stash after run: {} of {} slots occupied, {} live, {} shadows",
        stash.occupied(),
        stash.capacity(),
        stash.live(),
        stash.shadow_entries().count()
    );
}

/// Controller access cost as the stash capacity grows with the load held
/// fixed. Once `M` reaches 400 the stash holds every block of the
/// 400-block working set (live, evicted or shadow); with the eviction
/// path O(live) the cost still stays flat in `M`.
fn stash_capacity_sweep() {
    println!("-- controller access vs stash capacity M, L=10 --");
    for (name, policy) in [POLICIES[0], POLICIES[3]] {
        for capacity in [96usize, 400, 1600] {
            let mut cfg = OramConfig::small_test().with_levels(10).with_dup_policy(policy);
            cfg.stash_capacity = capacity;
            let mut ctl = OramController::new(cfg).unwrap();
            ctl.prefill((0..400u64).map(|i| (BlockAddr::new(i), i)));
            let mut i = 0u64;
            for _ in 0..4000 {
                i = (i + 17) % 400;
                black_box(ctl.access(Request::read(BlockAddr::new(i))));
            }
            let r = bench(&format!("stash_capacity/{name}/M={capacity}"), 20, 2000, || {
                i = (i + 17) % 400;
                black_box(ctl.access(Request::read(BlockAddr::new(i))))
            });
            println!("{r}  [occupied {}]", ctl.stash().occupied());
        }
    }
}

/// The zero-allocation claim, checked: after warmup (position map grown
/// to the working set, duplication queues at their high-water capacity),
/// a sustained mixed read/write/dummy loop must perform **zero**
/// allocator calls under every duplication policy.
fn steady_state_allocation_check() -> bool {
    println!("-- steady-state allocation check --");
    let mut ok = true;
    for (name, policy) in POLICIES {
        let cfg = OramConfig::small_test().with_levels(10).with_dup_policy(policy);
        let mut ctl = OramController::new(cfg).unwrap();
        ctl.prefill((0..400u64).map(|i| (BlockAddr::new(i), i)));
        // Warmup: touch the whole working set, fire plenty of evictions.
        let mut i = 0u64;
        for _ in 0..4000 {
            i = (i + 17) % 400;
            black_box(ctl.access(Request::read(BlockAddr::new(i))));
        }
        let before = ALLOC.allocations();
        for step in 0..10_000u64 {
            i = (i + 17) % 400;
            match step % 5 {
                0 => black_box(ctl.access(Request::write(BlockAddr::new(i), step))),
                4 => black_box(ctl.dummy_access()),
                _ => black_box(ctl.access(Request::read(BlockAddr::new(i)))),
            };
        }
        let delta = ALLOC.allocations() - before;
        let verdict = if delta == 0 { "OK" } else { "FAIL" };
        println!("steady_state_allocs/{name:<10} {delta:>6} allocs in 10k accesses  [{verdict}]");
        ok &= delta == 0;
    }
    ok
}

/// The recursive position map keeps the zero-allocation property
/// whenever the PLB answers: with the working set confined to a few
/// posmap pages (all PLB-resident after warmup), a sustained mixed
/// loop — chain walks only ever fired during warmup — must perform
/// **zero** allocator calls across 10k accesses.
fn recursive_plb_hit_allocation_check() -> bool {
    println!("-- recursive posmap PLB-hit allocation check --");
    let cfg = OramConfig::small_test()
        .with_levels(10)
        .with_posmap(PosMapSelect::Recursive { onchip_kb: 1 });
    let mut ctl = OramController::new(cfg).unwrap();
    // 64 addresses = 4 posmap pages: the 64-entry PLB holds them all.
    ctl.prefill((0..64u64).map(|i| (BlockAddr::new(i), i)));
    let mut i = 0u64;
    for _ in 0..4000 {
        i = (i + 17) % 64;
        black_box(ctl.access(Request::read(BlockAddr::new(i))));
    }
    let before = ALLOC.allocations();
    for step in 0..10_000u64 {
        i = (i + 17) % 64;
        match step % 5 {
            0 => black_box(ctl.access(Request::write(BlockAddr::new(i), step))),
            4 => black_box(ctl.dummy_access()),
            _ => black_box(ctl.access(Request::read(BlockAddr::new(i)))),
        };
    }
    let delta = ALLOC.allocations() - before;
    let verdict = if delta == 0 { "OK" } else { "FAIL" };
    println!(
        "steady_state_allocs/recursive_plb_hit {delta:>6} allocs in 10k accesses  [{verdict}]"
    );
    delta == 0
}

fn main() {
    controller_access();
    stash_ops();
    eviction_path();
    eviction_dyn_tp();
    stash_capacity_sweep();
    let mut ok = steady_state_allocation_check();
    ok &= recursive_plb_hit_allocation_check();
    if !ok {
        eprintln!("steady-state ORAM access loop allocated — zero-allocation regression");
        std::process::exit(1);
    }
}
