//! Micro-benchmarks of the DDR3 timing model: path-shaped batches
//! (sequential within subtree rows) versus scattered traffic, the
//! allocation-free `service_batch_into` entry point the simulator uses,
//! and replay-shaped access loops (bus-bound, XOR-compressed reads off the
//! bus, and writes only), each with a hard zero-allocation check.
//!
//! Run with `cargo bench --bench dram`. The allocation check exits
//! non-zero if the steady-state batch loop ever touches the heap, so CI
//! can use this bench as a regression gate.

use oram_bench::{bench, CountingAlloc};
use oram_dram::{BlockRequest, DramConfig, DramSystem, SubtreeLayout};
use oram_util::Rng64;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Tree depth `L` and bucket size `Z` of the replay-shaped scenarios:
/// the `replay-dyn-tp` benchmark workload's geometry, 75 blocks per path.
const REPLAY_LEVELS: u32 = 14;
const REPLAY_Z: usize = 5;

/// One path batch of a replay-shaped access.
#[derive(Clone, Copy)]
struct Batch {
    /// The eviction leaf's path, else the read-only access's.
    evict_path: bool,
    write: bool,
    /// Whether read bursts hold the data bus (`false` models the XOR hub).
    occupy_bus: bool,
}

/// A replay-shaped scenario: its name and one access's batches.
type Scenario = (&'static str, [Batch; 3]);

const fn batch(evict_path: bool, write: bool, occupy_bus: bool) -> Batch {
    Batch { evict_path, write, occupy_bus }
}

/// The read-only path read, then the eviction read and write.
const REPLAY: Scenario =
    ("replay", [batch(false, false, true), batch(true, false, true), batch(true, true, true)]);
/// As `REPLAY`, with the read-only path read XOR-compressed: its bursts
/// stay off the data bus, so a same-row run finishes all at once.
const XOR: Scenario =
    ("xor", [batch(false, false, false), batch(true, false, true), batch(true, true, true)]);
/// Path writes only: the write-direction runs (tWR, write latency).
const WRITE_ONLY: Scenario =
    ("write", [batch(false, true, true), batch(true, true, true), batch(true, true, true)]);

/// One ORAM access's DRAM traffic, batch by batch: each scenario batch is
/// a whole path (root to leaf) issued when the previous batch finishes.
struct ReplayAccesses {
    dram: DramSystem,
    layout: SubtreeLayout,
    batches: [Batch; 3],
    rng: Rng64,
    reqs: Vec<BlockRequest>,
    finishes: Vec<i64>,
    now: i64,
}

impl ReplayAccesses {
    fn new(batches: [Batch; 3]) -> Self {
        let cfg = DramConfig::ddr3_1333(); // refresh on
        let path_blocks = (REPLAY_LEVELS as usize + 1) * REPLAY_Z;
        ReplayAccesses {
            dram: DramSystem::new(cfg).expect("valid DRAM config"),
            layout: SubtreeLayout::fit_to_row(&cfg, REPLAY_Z),
            batches,
            rng: Rng64::seed_from_u64(0xD7A3),
            reqs: Vec::with_capacity(path_blocks),
            finishes: Vec::with_capacity(path_blocks),
            now: 0,
        }
    }

    /// Services one path batch (root to leaf) and advances the clock to
    /// its last finish.
    fn path_batch(&mut self, leaf: u64, b: Batch) {
        let leaf_heap = (1u64 << REPLAY_LEVELS) | leaf;
        self.reqs.clear();
        for level in 0..=REPLAY_LEVELS {
            let first = self.layout.block_addr(leaf_heap >> (REPLAY_LEVELS - level), 0);
            for addr in first..first + REPLAY_Z as u64 {
                self.reqs.push(if b.write {
                    BlockRequest::write(addr)
                } else {
                    BlockRequest::read(addr)
                });
            }
        }
        self.dram.service_batch_into(self.now, &self.reqs, b.occupy_bus, &mut self.finishes);
        self.now = *self.finishes.iter().max().expect("non-empty batch");
    }

    /// One access: three batches, `3 · 75` blocks.
    fn access(&mut self) {
        let leaves = 1u64 << REPLAY_LEVELS;
        let read_leaf = self.rng.below(leaves);
        let evict_leaf = self.rng.below(leaves);
        for b in self.batches {
            self.path_batch(if b.evict_path { evict_leaf } else { read_leaf }, b);
        }
    }

    fn blocks_per_access() -> usize {
        3 * (REPLAY_LEVELS as usize + 1) * REPLAY_Z
    }
}

/// A replay-shaped scenario's host cost in ns per block, and how many
/// transactions each FR-FCFS selection serves.
fn replay_shaped((name, batches): Scenario) {
    let mut replay = ReplayAccesses::new(batches);
    let r = bench(&format!("dram/{name}_L14_Z5_access"), 30, 500, || {
        replay.access();
        black_box(replay.now)
    });
    println!("{r}");
    let s = replay.dram.stats();
    println!(
        "dram/{name}_L14_Z5 {:>8.1} ns/block  {:>5.2} transactions per FR-FCFS pick",
        r.median_ns / ReplayAccesses::blocks_per_access() as f64,
        (s.reads + s.writes) as f64 / replay.dram.fr_fcfs_picks() as f64
    );
}

/// Zero-allocation claim, checked: after a warm-up, 10k replay-shaped
/// accesses (30k batches) through `service_batch_into` perform no
/// allocator calls.
fn steady_state_allocation_check((name, batches): Scenario) -> bool {
    let mut replay = ReplayAccesses::new(batches);
    for _ in 0..1_000 {
        replay.access();
    }
    let before = ALLOC.allocations();
    for _ in 0..10_000 {
        replay.access();
    }
    let delta = ALLOC.allocations() - before;
    black_box(replay.now);
    let verdict = if delta == 0 { "OK" } else { "FAIL" };
    println!("steady_state_allocs/dram_{name} {delta:>6} allocs in 10k accesses  [{verdict}]");
    delta == 0
}

fn path_requests(layout: &SubtreeLayout) -> Vec<BlockRequest> {
    // A realistic ORAM path at L = 16: buckets along one root-to-leaf walk.
    let mut path_reqs = Vec::new();
    let mut heap = 1u64 << 16;
    while heap >= 1 {
        for slot in 0..5 {
            path_reqs.push(BlockRequest::read(layout.block_addr(heap, slot)));
        }
        if heap == 1 {
            break;
        }
        heap >>= 1;
    }
    path_reqs
}

fn main() {
    let cfg = DramConfig::ddr3_1333();
    let layout = SubtreeLayout::fit_to_row(&cfg, 5);
    let path_reqs = path_requests(&layout);

    {
        let mut dram = DramSystem::new(cfg).unwrap();
        let mut t = 0i64;
        let r = bench("dram/oram_path_85_blocks", 30, 200, || {
            let done = dram.service_batch(t, &path_reqs);
            t = *done.iter().max().unwrap();
            black_box(done)
        });
        println!("{r}");
    }

    {
        let mut dram = DramSystem::new(cfg).unwrap();
        let reqs: Vec<BlockRequest> =
            (0..85u64).map(|i| BlockRequest::read(i * 104_729)).collect();
        let mut t = 0i64;
        let r = bench("dram/scattered_85_blocks", 30, 200, || {
            let done = dram.service_batch(t, &reqs);
            t = *done.iter().max().unwrap();
            black_box(done)
        });
        println!("{r}");
    }

    {
        // The reusable-buffer entry point the engine's hot loop uses:
        // identical schedule, no per-batch Vec.
        let mut dram = DramSystem::new(cfg).unwrap();
        let mut finishes = Vec::new();
        let mut t = 0i64;
        let r = bench("dram/oram_path_85_blocks_into", 30, 200, || {
            dram.service_batch_into(t, &path_reqs, true, &mut finishes);
            t = *finishes.iter().max().unwrap();
            black_box(finishes.len())
        });
        println!("{r}");
    }

    let scenarios = [REPLAY, XOR, WRITE_ONLY];
    for scenario in scenarios {
        replay_shaped(scenario);
    }
    // Every scenario is checked, so one report names each that failed.
    let failed = scenarios.into_iter().filter(|&s| !steady_state_allocation_check(s)).count();
    if failed > 0 {
        eprintln!("steady-state DRAM batch loop allocated — zero-allocation regression");
        std::process::exit(1);
    }
}
