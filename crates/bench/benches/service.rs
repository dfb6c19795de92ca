//! Micro-benchmarks of the service front-end: request round-trip cost
//! through admission + scheduling + coalescing into the engine, and a
//! hard zero-allocation check over the steady-state service issue path,
//! run over a one-shard and a four-shard backend.
//!
//! Run with `cargo bench --bench service`. The allocation check exits
//! non-zero if the service-driven steady state ever touches the heap,
//! so CI can use this bench as a regression gate. Per-request *setup*
//! (queue and sample buffers sized at construction) may allocate; the
//! admission/schedule/coalesce/issue loop may not.

use oram_bench::{bench, CountingAlloc};
use oram_service::{SchedPolicy, ServiceConfig, ShardedServiceSim};
use oram_sim::{ShardedOram, SystemConfig};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn backend(shards: usize) -> ShardedOram {
    let mut b = ShardedOram::new(SystemConfig::small_test(), shards, 1).expect("valid config");
    b.prefill_working_set(512);
    b
}

fn service_roundtrip() {
    println!("-- service round-trip (admission + schedule + ORAM access) --");
    for policy in SchedPolicy::ALL {
        let mut cfg = ServiceConfig::symmetric_open(4, 0, 1_000.0, 512, 11);
        cfg.scheduler = policy;
        let mut sim = ShardedServiceSim::new(cfg, backend(1)).expect("valid config");
        let mut i = 0u64;
        let r = bench(&format!("service_roundtrip/{}", policy.name()), 20, 2000, || {
            i = (i + 17) % 512;
            sim.inject((i % 4) as usize, i, i.is_multiple_of(5));
            while sim.step() {}
            black_box(i)
        });
        println!("{r}");
    }
}

/// The zero-allocation claim, extended through the service layer: with
/// every shard engine warmed to its high-water marks and the service
/// and dispatch buffers sized at construction, a full generated run —
/// Poisson admission, Zipfian draws, scheduling, MSHR coalescing,
/// batch partitioning and outcome scatter, and the ORAM accesses
/// themselves — must perform **zero** allocator calls at one worker
/// thread. (Multi-thread serving allocates per-shard result buffers by
/// design; the gate pins the single-thread path.)
fn steady_state_allocation_check(shards: usize) -> bool {
    println!("-- service steady-state allocation check ({shards}-shard backend) --");
    let mut ok = true;
    for policy in SchedPolicy::ALL {
        // Warm every shard off the books: (i + 17) % 512 cycles all
        // residues mod 4, so each shard's DRAM queues, stash, and
        // duplication structures reach steady-state capacity.
        let mut backend = backend(shards);
        let mut i = 0u64;
        for step in 0..8000u64 {
            i = (i + 17) % 512;
            black_box(backend.serve_request(i, step.is_multiple_of(5), 0));
        }

        let mut cfg = ServiceConfig::symmetric_open(4, 2_500, 400.0, 512, 11);
        cfg.scheduler = policy;
        // Construction preallocates queues, waiter scratch, latency and
        // dispatch buffers — allowed to allocate.
        let mut sim = ShardedServiceSim::new(cfg, backend).expect("valid config");
        let before = ALLOC.allocations();
        sim.run();
        let delta = ALLOC.allocations() - before;
        let (res, _) = sim.finish();
        assert_eq!(res.completed() + res.rejected(), 10_000, "{}", policy.name());
        let verdict = if delta == 0 { "OK" } else { "FAIL" };
        let label = format!("{shards}shard/{}", policy.name());
        println!(
            "service_steady_allocs/{label:<19} {delta:>6} allocs in 10k requests  [{verdict}]"
        );
        ok &= delta == 0;
    }
    ok
}

fn main() {
    service_roundtrip();
    let mut ok = steady_state_allocation_check(1);
    ok &= steady_state_allocation_check(4);
    if !ok {
        eprintln!("service steady-state issue path allocated — zero-allocation regression");
        std::process::exit(1);
    }
}
