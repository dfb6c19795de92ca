//! The trusted ORAM controller: Tiny ORAM's access protocol with optional
//! shadow-block duplication.
//!
//! One CPU request proceeds through the steps of Sec. II-C:
//!
//! 1. query the stash; a hit is served on chip;
//! 2. on a miss, look up the leaf label in the position map;
//! 3. read the whole path (*read-only phase*), forwarding the requested
//!    data the moment the first current copy — real **or shadow** — is
//!    decrypted (Algorithm 2);
//! 4. after every `A − 1` read-only accesses, run one eviction: read the
//!    next reverse-lexicographic path and rewrite it from the stash
//!    (*read-write phase*), filling dummy slots with shadow copies per the
//!    duplication policy (Algorithm 1).
//!
//! The controller is purely functional with respect to time: it reports
//! *what* was accessed and *at which flat block position* data became
//! available; the system simulator turns that into cycles via the DRAM
//! model.

use oram_util::{BusEvent, BusPhase, MetricId, Rng64, SharedObserver, SharedTelemetry};

use crate::access::{AccessResult, PathPhase, PhaseKind, PhaseList, ServedFrom, TraceRecorder};
use crate::config::OramConfig;
use crate::hotcache::HotAddressCache;
use crate::posmap::{build_posmap, PosMapBackend, PosmapPhase, RealCopySite};
use crate::shadow::{
    scheme_for_slot, DupCandidate, DupPolicy, DupQueues, DynamicPartitioner, SlotScheme,
};
use crate::stash::Stash;
use crate::tree::{BucketId, EvictionOrder, OramTree, TreeShape};
use crate::types::{Block, BlockAddr, LeafLabel, Op, Request};

/// Aggregate statistics of one controller instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramStats {
    /// Real (CPU-originated) requests processed.
    pub real_requests: u64,
    /// Dummy requests processed (timing protection).
    pub dummy_requests: u64,
    /// Requests served by a stash hit (no path read needed).
    pub stash_served: u64,
    /// Stash-hit requests whose resident entry was a shadow or evicted
    /// copy (i.e. hits the baseline controller could not have had live).
    pub replaceable_stash_served: u64,
    /// Stash-hit requests served specifically by a shadow-kind entry — a
    /// hit class that only exists with duplication enabled (HD-Dup's
    /// "cache hot data into the stash" effect).
    pub shadow_stash_served: u64,
    /// Requests whose data was found in the on-chip treetop levels.
    pub treetop_served: u64,
    /// Requests served by the DRAM path read via a shadow copy strictly
    /// earlier than the real copy would have been.
    pub shadow_advanced: u64,
    /// Requests served by the DRAM path read (any copy).
    pub dram_served: u64,
    /// First-touch requests (no copy existed).
    pub fresh_served: u64,
    /// Sum of flat serving positions for `dram_served` accesses.
    pub served_position_sum: u64,
    /// Sum of the path positions the *real* copy occupied for accesses in
    /// `shadow_advanced` (to quantify how much earlier shadows are).
    pub real_position_sum: u64,
    /// Read-only path reads issued.
    pub ro_path_reads: u64,
    /// Evictions (read+write path pairs) issued.
    pub evictions: u64,
    /// Shadow blocks written by RD-Dup.
    pub rd_shadows_written: u64,
    /// Shadow blocks written by HD-Dup.
    pub hd_shadows_written: u64,
    /// Real blocks written back by evictions.
    pub real_blocks_written: u64,
    /// Dummy blocks written by evictions (slots no scheme could fill).
    pub dummy_blocks_written: u64,
    /// Stale copies discarded by the version/label check on load.
    pub stale_discarded: u64,
    /// Stash-resident shadow entries offered as duplication candidates
    /// across all evictions (recirculation supply).
    pub stash_shadow_candidates: u64,
    /// Shadow writes whose source was a recirculated stash shadow.
    pub recirculated_shadows: u64,
}

impl OramStats {
    /// Mean flat block position at which DRAM-served requests completed.
    pub fn mean_served_position(&self) -> f64 {
        if self.dram_served == 0 {
            0.0
        } else {
            self.served_position_sum as f64 / self.dram_served as f64
        }
    }

    /// Fraction of real requests served on chip (stash or treetop) — the
    /// paper's Fig. 16 metric.
    pub fn on_chip_hit_rate(&self) -> f64 {
        if self.real_requests == 0 {
            0.0
        } else {
            (self.stash_served + self.treetop_served) as f64 / self.real_requests as f64
        }
    }
}

/// Deliberate protocol faults for auditor validation (test-only).
///
/// The `oram-audit` crate must be able to prove that its invariant and
/// statistical layers actually catch obliviousness regressions, so this
/// enum — compiled only under the `mutants` cargo feature, which nothing
/// but audit dev-dependencies enables — injects the two canonical breaks:
/// a structural one (a bucket missing from an eviction write) and a
/// distributional one (biased leaf remapping).
#[cfg(feature = "mutants")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutant {
    /// No fault: the honest protocol.
    #[default]
    None,
    /// The eviction write half skips rewriting the leaf-level bucket —
    /// the "forgot to dummy-fill one bucket" class of bug. Externally
    /// visible as a short write phase.
    SkipLeafRewrite,
    /// Remaps accessed blocks to the lower half of the leaf space — the
    /// "RNG misuse" class of bug. Externally visible only statistically.
    BiasedRemap,
}

/// Continuation token between [`OramController::access_issue`] and
/// [`OramController::access_complete`], carrying the two facts the
/// completion half needs: whether a bus transaction is open at all, and
/// whether the eviction cadence fired on this access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTicket {
    /// `true` when the issue half opened a bus transaction that still
    /// needs its completion half (always `false` for stash hits, which
    /// never reach the bus).
    open: bool,
    /// `true` when the completion half must run an eviction.
    eviction_due: bool,
}

impl AccessTicket {
    /// Whether the access still needs [`OramController::access_complete`].
    pub fn open(&self) -> bool {
        self.open
    }

    /// Whether the completion half will run an eviction pair.
    pub fn eviction_due(&self) -> bool {
        self.eviction_due
    }
}

/// The ORAM controller.
///
/// ```
/// use oram_protocol::{OramController, OramConfig, Request, BlockAddr};
///
/// # fn main() {
/// let mut ctl = OramController::new(OramConfig::small_test()).unwrap();
/// ctl.access(Request::write(BlockAddr::new(5), 1234));
/// let r = ctl.access(Request::read(BlockAddr::new(5)));
/// assert_eq!(r.value, 1234);
/// # }
/// ```
#[derive(Debug)]
pub struct OramController {
    cfg: OramConfig,
    shape: TreeShape,
    tree: OramTree,
    stash: Stash,
    /// The position-map backend selected by [`OramConfig::posmap`]
    /// (flat, sparse, or the recursive posmap-ORAM chain).
    posmap: Box<dyn PosMapBackend>,
    hot: HotAddressCache,
    eviction_order: EvictionOrder,
    dynamic: Option<DynamicPartitioner>,
    rng: Rng64,
    ro_since_eviction: u32,
    stats: OramStats,
    trace: TraceRecorder,
    /// Reusable root→leaf path buffer: after the first access it is a
    /// `path_into` refill, never a fresh allocation.
    path_buf: Vec<BucketId>,
    /// Off-chip bucket reads per tree level (index = level, `levels + 1`
    /// entries) — the bucket-touch heatmap's read axis. Preallocated, so
    /// the hot path only increments.
    level_reads: Vec<u64>,
    /// Off-chip bucket writes per tree level (eviction write half).
    level_writes: Vec<u64>,
    /// Reusable duplication-candidate queues for the eviction write
    /// half; cleared per eviction, capacity retained.
    dup_queues: DupQueues,
    /// Optional bus observer (see [`oram_util::observe`]): `None` in
    /// production, so the hot path pays one branch and nothing else.
    observer: Option<SharedObserver>,
    /// Optional telemetry sink (see [`oram_util::telemetry`]): the
    /// designer-facing counterpart of the bus observer, with the same
    /// one-branch-when-detached cost model.
    telemetry: Option<SharedTelemetry>,
    /// Injected protocol fault (auditor validation only).
    #[cfg(feature = "mutants")]
    mutant: Mutant,
}

impl OramController {
    /// Builds a controller (and its all-dummy tree) from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the validation error string if `cfg` is inconsistent.
    pub fn new(cfg: OramConfig) -> Result<Self, String> {
        cfg.validate()?;
        let shape = TreeShape::new(cfg.levels, cfg.z);
        let dynamic = match cfg.dup_policy {
            DupPolicy::Dynamic { counter_bits } => {
                Some(DynamicPartitioner::new(counter_bits, cfg.levels))
            }
            _ => None,
        };
        Ok(OramController {
            shape,
            tree: OramTree::new(shape),
            stash: Stash::new(cfg.stash_capacity),
            posmap: build_posmap(&cfg, shape),
            hot: HotAddressCache::new(cfg.hot_cache_sets, cfg.hot_cache_ways),
            eviction_order: EvictionOrder::new(cfg.levels),
            dynamic,
            rng: Rng64::seed_from_u64(cfg.seed),
            ro_since_eviction: 0,
            stats: OramStats::default(),
            trace: TraceRecorder::new(cfg.record_trace),
            path_buf: Vec::with_capacity(cfg.levels as usize + 1),
            level_reads: vec![0; cfg.levels as usize + 1],
            level_writes: vec![0; cfg.levels as usize + 1],
            dup_queues: DupQueues::with_capacity(
                cfg.levels,
                cfg.stash_capacity + (cfg.levels as usize + 1) * cfg.z,
            ),
            observer: None,
            telemetry: None,
            #[cfg(feature = "mutants")]
            mutant: Mutant::None,
            cfg,
        })
    }

    /// Attaches (or with `None` detaches) a bus observer receiving every
    /// externally visible event: access framing, bucket reads and writes
    /// in issue order. Stash hits emit nothing — they never reach the
    /// bus.
    pub fn set_observer(&mut self, observer: Option<SharedObserver>) {
        // The posmap backend shares the handle: recursive posmap-ORAM
        // bucket touches interleave into the same trace (as
        // `PosmapBucket` events), flat backends emit nothing.
        self.posmap.set_observer(observer.clone());
        self.observer = observer;
    }

    /// Injects a deliberate protocol fault (auditor validation only).
    #[cfg(feature = "mutants")]
    pub fn set_mutant(&mut self, mutant: Mutant) {
        self.mutant = mutant;
    }

    /// Attaches (or with `None` detaches) a telemetry sink receiving the
    /// controller-internal event stream: stash hit classes, serving
    /// positions, shadow pulls, DRI transitions, duplication-queue
    /// depths. Unlike the bus observer this sees *trusted-side* state an
    /// adversary never could.
    pub fn set_telemetry(&mut self, telemetry: Option<SharedTelemetry>) {
        self.telemetry = telemetry;
    }

    #[inline]
    fn emit(&self, event: BusEvent) {
        if let Some(obs) = &self.observer {
            obs.lock().expect("bus observer poisoned").on_event(event);
        }
    }

    #[inline]
    fn tl_count(&self, id: MetricId, delta: u64) {
        if let Some(t) = &self.telemetry {
            t.lock().expect("telemetry poisoned").count(id, delta);
        }
    }

    #[inline]
    fn tl_sample(&self, id: MetricId, value: u64) {
        if let Some(t) = &self.telemetry {
            t.lock().expect("telemetry poisoned").sample(id, value);
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &OramConfig {
        &self.cfg
    }

    /// Tree geometry.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> OramStats {
        self.stats
    }

    /// Bucket-touch heatmap: off-chip bucket reads and writes per tree
    /// level (`levels + 1` entries each, index = level, root = 0).
    /// Treetop levels always read zero — they never reach the bus.
    pub fn level_touches(&self) -> (&[u64], &[u64]) {
        (&self.level_reads, &self.level_writes)
    }

    /// Stash statistics snapshot.
    pub fn stash_stats(&self) -> crate::stash::StashStats {
        self.stash.stats()
    }

    /// PLB statistics snapshot.
    pub fn plb_stats(&self) -> crate::posmap::PlbStats {
        self.posmap.plb_stats()
    }

    /// Posmap-ORAM phases queued by the most recent access's PLB-miss
    /// walk (always empty for flat backends). The engine costs these
    /// through the DRAM model before the access's data path read; they
    /// are cleared automatically at the next issue.
    pub fn posmap_pending(&self) -> &[PosmapPhase] {
        self.posmap.pending()
    }

    /// Which position-map backend is active ("flat", "sparse",
    /// "recursive").
    pub fn posmap_kind(&self) -> &'static str {
        self.posmap.kind()
    }

    /// Modeled on-chip posmap state in bytes (terminal map + PLB +
    /// level-ORAM stashes for the recursive backend; the whole table
    /// for flat ones).
    pub fn posmap_onchip_bytes(&self) -> u64 {
        self.posmap.onchip_bytes()
    }

    /// Depth of the recursive posmap-ORAM chain (0 for flat backends).
    pub fn posmap_chain_levels(&self) -> u16 {
        self.posmap.chain_levels()
    }

    /// The recorded externally visible trace (empty unless
    /// [`OramConfig::record_trace`] was set).
    pub fn trace(&self) -> &[crate::access::TraceEvent] {
        self.trace.events()
    }

    /// The current partitioning level, if a partitioned policy is active.
    pub fn partition_level(&self) -> Option<u32> {
        match self.cfg.dup_policy {
            DupPolicy::Static { partition_level } => Some(partition_level),
            DupPolicy::Dynamic { .. } => self.dynamic.as_ref().map(|d| d.level()),
            _ => None,
        }
    }

    /// Bulk-installs an initial memory image without generating ORAM
    /// traffic: each `(addr, value)` pair is mapped to a random leaf and
    /// placed in the deepest non-full bucket of its path (overflow goes to
    /// the stash). Mirrors a pre-initialized memory before measurement.
    ///
    /// # Panics
    ///
    /// Panics if the working set does not fit (more blocks than tree
    /// slots + stash) — a configuration error in the experiment.
    pub fn prefill<I: IntoIterator<Item = (BlockAddr, u64)>>(&mut self, blocks: I) {
        for (addr, value) in blocks {
            let entry = self.posmap.lookup_or_assign(addr, &mut self.rng);
            let label = entry.label;
            let blk = Block::real(addr, label, value, entry.version);
            let mut placed = false;
            // Deepest-first placement packs the tree the way long-running
            // evictions would.
            for level in (0..=self.shape.levels()).rev() {
                let bid = self.shape.bucket_on_path(label, level);
                let bucket = self.tree.bucket_mut(bid);
                if let Some(slot) = bucket.iter_mut().find(|s| s.is_dummy()) {
                    *slot = blk;
                    self.posmap.set_site(addr, RealCopySite::Tree { level });
                    placed = true;
                    break;
                }
            }
            if !placed {
                match self.stash.insert(blk) {
                    crate::stash::InsertOutcome::Overflow => {
                        panic!("prefill working set exceeds ORAM capacity")
                    }
                    _ => self.posmap.set_site(addr, RealCopySite::Stash),
                }
            }
            // Prefill models a pre-initialized image: posmap walks the
            // lookups triggered are warmup, never costed.
            self.posmap.clear_pending();
        }
    }

    /// Returns `true` if a request for `addr` would be served by the
    /// stash right now (a current-version resident copy exists). Lets the
    /// timing simulator serve on-chip hits without waiting for the memory
    /// pipeline — the stash CAM is a separate resource.
    pub fn stash_would_serve(&self, addr: BlockAddr) -> bool {
        self.stash
            .serving(addr)
            .is_some_and(|e| self.posmap.is_current(addr, e.block.version))
    }

    /// Processes one CPU request (Steps 1–6 of Sec. II-C).
    pub fn access(&mut self, req: Request) -> AccessResult {
        let (mut result, ticket) = self.access_issue(req);
        if let Some((er, ew)) = self.access_complete(ticket) {
            result.phases.push(er);
            result.phases.push(ew);
        }
        result
    }

    /// The issue half of [`OramController::access`] (Steps 1–3): stash
    /// query, position-map lookup and the read-only path read. Returns a
    /// result whose phase list holds at most the `ReadOnly` phase, plus a
    /// ticket for [`OramController::access_complete`].
    ///
    /// The split exists for the pipelined timing model: the completion
    /// half (the eviction, when due) can overlap the *next* access's path
    /// read in time, while the protocol state itself still mutates in
    /// strict issue order. Every open ticket must be completed before the
    /// next issue; [`OramController::access`] is exactly
    /// `access_issue` + `access_complete` and stays bit-identical.
    pub fn access_issue(&mut self, req: Request) -> (AccessResult, AccessTicket) {
        // Posmap phases queued by the previous access were costed by the
        // engine after that access; start this one with a clean queue.
        self.posmap.clear_pending();
        self.stats.real_requests += 1;
        if self.telemetry.is_none() {
            self.hot.observe(req.addr);
        } else {
            // Classify the observation by diffing the cache's own stats:
            // keeps the instrumentation out of the detached hot path and
            // the cache API unchanged.
            let before = self.hot.stats();
            self.hot.observe(req.addr);
            let after = self.hot.stats();
            self.tl_count(MetricId::HotCacheHit, after.hits - before.hits);
            self.tl_count(MetricId::HotCacheMiss, after.misses - before.misses);
            self.tl_count(MetricId::HotCacheEvict, after.evictions - before.evictions);
        }
        self.note_request_for_dynamic(true);

        // Step-1: stash query.
        if let Some(entry) = self.stash.lookup(req.addr) {
            if self.posmap.is_current(req.addr, entry.block.version) {
                let hit_shadow = entry.block.is_shadow();
                if hit_shadow {
                    self.stats.shadow_stash_served += 1;
                    self.tl_count(MetricId::StashHitShadow, 1);
                }
                let value = self.serve_stash_hit(req, entry.replaceable);
                let result = AccessResult {
                    served: ServedFrom::Stash,
                    value,
                    stash_hit_shadow: hit_shadow,
                    phases: PhaseList::new(),
                };
                // Stash hits never reach the bus: nothing to complete.
                return (result, AccessTicket { open: false, eviction_due: false });
            }
            // Stale resident copy: drop it and fall through to a full access.
            self.stash.remove(req.addr);
            self.stats.stale_discarded += 1;
            self.tl_count(MetricId::StaleDiscarded, 1);
        }

        self.emit(BusEvent::AccessStart);

        // Step-2: position map lookup (assigning a label on first touch).
        // On a recursive backend a PLB miss walks the posmap-ORAM chain
        // here, queueing costed phases the engine drains after this
        // access. PLB counters use the same diff-the-stats pattern as
        // the Hot Address Cache above.
        let entry = if self.telemetry.is_none() {
            self.posmap.lookup_or_assign(req.addr, &mut self.rng)
        } else {
            let before = self.posmap.plb_stats();
            let e = self.posmap.lookup_or_assign(req.addr, &mut self.rng);
            let after = self.posmap.plb_stats();
            self.tl_count(MetricId::PlbHit, after.hits - before.hits);
            self.tl_count(MetricId::PlbMiss, after.misses - before.misses);
            self.tl_count(MetricId::PlbEvict, after.evictions - before.evictions);
            e
        };
        let leaf = entry.label;

        // Step-3: read-only path read.
        let (ro, served, value) = self.read_only_access(leaf, Some(req));
        let mut phases = PhaseList::new();
        phases.push(ro);

        // The eviction cadence advances at issue time, so back-to-back
        // issues see the same schedule whether or not completions overlap.
        self.ro_since_eviction += 1;
        let eviction_due = self.ro_since_eviction >= self.cfg.eviction_rate - 1;
        if eviction_due {
            self.ro_since_eviction = 0;
        }

        let result = AccessResult { served, value, stash_hit_shadow: false, phases };
        (result, AccessTicket { open: true, eviction_due })
    }

    /// The completion half of [`OramController::access`] (Steps 4–6): runs
    /// the eviction when the cadence fired at issue time and closes the
    /// access frame on the bus. Returns the eviction read/write phase pair,
    /// or `None` when no eviction was due (stash-hit tickets are inert and
    /// complete to `None` immediately).
    pub fn access_complete(&mut self, ticket: AccessTicket) -> Option<(PathPhase, PathPhase)> {
        if !ticket.open {
            return None;
        }
        let evicted = if ticket.eviction_due { Some(self.evict()) } else { None };
        self.emit(BusEvent::AccessEnd);
        evicted
    }

    /// Processes one dummy request (timing protection): a read-only path
    /// read of a uniformly random path, indistinguishable from a real
    /// request, participating in the eviction schedule.
    pub fn dummy_access(&mut self) -> AccessResult {
        // Dummies never consult the position map, but the previous
        // access's costed posmap phases are done with.
        self.posmap.clear_pending();
        self.stats.dummy_requests += 1;
        self.note_request_for_dynamic(false);
        self.emit(BusEvent::AccessStart);

        let leaf = LeafLabel::new(self.rng.below(self.shape.leaf_count()));
        let (ro, _, _) = self.read_only_access(leaf, None);
        let mut phases = PhaseList::new();
        phases.push(ro);

        self.ro_since_eviction += 1;
        if self.ro_since_eviction >= self.cfg.eviction_rate - 1 {
            self.ro_since_eviction = 0;
            let (er, ew) = self.evict();
            phases.push(er);
            phases.push(ew);
        }

        self.emit(BusEvent::AccessEnd);
        AccessResult { served: ServedFrom::Stash, value: 0, stash_hit_shadow: false, phases }
    }

    fn note_request_for_dynamic(&mut self, is_real: bool) {
        let instrumented = self.telemetry.is_some();
        let Some(d) = self.dynamic.as_mut() else { return };
        if !instrumented {
            d.on_request(is_real);
            return;
        }
        let (counter_before, level_before) = (d.counter().value(), d.level());
        d.on_request(is_real);
        let (counter_after, level_after) = (d.counter().value(), d.level());
        // Transitions only: at saturation the counter does not move, so
        // Up/Down counts reflect actual state changes.
        if counter_after > counter_before {
            self.tl_count(MetricId::DriCounterUp, 1);
        } else if counter_after < counter_before {
            self.tl_count(MetricId::DriCounterDown, 1);
        }
        if level_after != level_before {
            self.tl_count(MetricId::PartitionShift, 1);
            self.tl_sample(MetricId::PartitionLevel, level_after as u64);
        }
    }

    /// Feeds the dynamic partitioner a synthetic "long gap" observation.
    ///
    /// With timing protection, long data-request intervals manifest as
    /// dummy requests, which [`OramController::dummy_access`] reports
    /// automatically. Without protection no dummies exist, so the system
    /// simulator calls this when it observes an idle interval long enough
    /// that a dummy *would* have been injected — keeping the DRI counter
    /// meaningful in both modes (Sec. IV-D2).
    pub fn record_long_gap(&mut self) {
        self.note_request_for_dynamic(false);
    }

    /// Serves a request that hit the stash; handles write promotion.
    fn serve_stash_hit(&mut self, req: Request, was_replaceable: bool) -> u64 {
        self.stats.stash_served += 1;
        if was_replaceable {
            self.stats.replaceable_stash_served += 1;
            self.tl_count(MetricId::StashHitReplaceable, 1);
        } else {
            self.tl_count(MetricId::StashHitReal, 1);
        }
        match req.op {
            Op::Read => self.stash.peek(req.addr).expect("hit entry present").block.data,
            Op::Write => {
                // Promote to a live real block with a bumped version; any
                // copies left in the tree become stale.
                let v = self.posmap.bump_version(req.addr);
                self.stash.write(req.addr, req.data, v);
                self.posmap.set_site(req.addr, RealCopySite::Stash);
                req.data
            }
        }
    }

    /// Performs the read-only path read of `leaf`. When `req` is a real
    /// request, the requested block is forwarded, remapped, and promoted
    /// live; all other current blocks enter the stash as replaceable cache
    /// copies (their tree copies remain authoritative).
    fn read_only_access(
        &mut self,
        leaf: LeafLabel,
        req: Option<Request>,
    ) -> (PathPhase, ServedFrom, u64) {
        self.stats.ro_path_reads += 1;
        let z = self.cfg.z;
        let treetop = self.cfg.treetop_levels;
        let mut path = std::mem::take(&mut self.path_buf);
        self.shape.path_into(leaf, &mut path);

        let mut served: Option<ServedFrom> = None;
        let mut value = 0u64;
        let mut dram_index = 0usize;
        // Count DRAM blocks for this read up front (levels outside the
        // treetop), so early-exit bookkeeping can't skew it.
        let dram_levels = path.len() - (treetop as usize).min(path.len());
        let blocks_in_path = dram_levels * z;

        self.emit(BusEvent::PhaseStart(BusPhase::ReadOnly));
        for (level, &bid) in path.iter().enumerate() {
            let on_chip = (level as u32) < treetop;
            if !on_chip {
                self.trace.record(bid, false);
                self.level_reads[level] += 1;
                self.emit(BusEvent::Bucket { bucket: bid.raw(), write: false });
            }
            for slot in 0..z {
                let blk = self.tree.bucket(bid)[slot];
                let flat = if on_chip { None } else { Some(dram_index) };
                if !on_chip {
                    dram_index += 1;
                }
                if blk.is_dummy() {
                    continue;
                }
                // Stale-copy invalidation (version or label mismatch).
                let current = self.posmap.is_current(blk.addr, blk.version)
                    && self.posmap.peek(blk.addr).map(|e| e.label) == Some(blk.label);
                if !current {
                    self.stats.stale_discarded += 1;
                    self.tl_count(MetricId::StaleDiscarded, 1);
                    continue;
                }
                // Algorithm 2 inserts "real or shadow" blocks. Tiny ORAM's
                // read-only phase writes nothing back, so non-requested
                // *real* blocks stay authoritative in the tree and are not
                // moved (RAW ORAM semantics — pulling whole paths live
                // would grow the stash without bound). Shadow blocks *are*
                // inserted, always replaceable (Rule-3): resident shadows
                // are both HD-Dup's on-chip cache of hot data and the
                // recirculation supply that re-propagates shadows at the
                // next eviction. The requested block itself is promoted to
                // a live resident (and remapped) after the loop.
                if blk.is_shadow() || Some(blk.addr) == req.map(|r| r.addr) {
                    if blk.is_shadow() {
                        self.tl_count(MetricId::ShadowStashPull, 1);
                    }
                    self.stash.insert(blk);
                }
                // Forward the requested data on its first current copy.
                if let Some(r) = req {
                    if blk.addr == r.addr && served.is_none() {
                        value = blk.data;
                        served = Some(match flat {
                            None => ServedFrom::Treetop,
                            Some(ix) => ServedFrom::Dram {
                                block_index: ix,
                                blocks_in_path,
                                via_shadow: blk.is_shadow(),
                            },
                        });
                    }
                }
            }
        }

        self.emit(BusEvent::PhaseEnd(BusPhase::ReadOnly));
        let phase = PathPhase::new(PhaseKind::ReadOnly, leaf, self.shape, treetop);

        // Post-processing for a real request: apply the op, remap, promote.
        let served = if let Some(r) = req {
            let served = served.unwrap_or(ServedFrom::Fresh { blocks_in_path });
            match served {
                ServedFrom::Treetop => {
                    self.stats.treetop_served += 1;
                    self.tl_count(MetricId::TreetopServed, 1);
                }
                ServedFrom::Dram { block_index, via_shadow, .. } => {
                    self.stats.dram_served += 1;
                    self.stats.served_position_sum += block_index as u64;
                    self.tl_sample(MetricId::ServedPosition, block_index as u64);
                    if via_shadow {
                        self.stats.shadow_advanced += 1;
                        self.tl_count(MetricId::DramServedShadow, 1);
                        // Locate the real copy's position for the advance
                        // metric: it is the last current copy on the path.
                        if let Some(real_ix) =
                            self.real_copy_flat_index(&path, r.addr, treetop, z)
                        {
                            self.stats.real_position_sum += real_ix as u64;
                            self.tl_sample(MetricId::RealPosition, real_ix as u64);
                            self.tl_sample(
                                MetricId::AdvanceDepth,
                                (real_ix as u64).saturating_sub(block_index as u64),
                            );
                        }
                    } else {
                        self.tl_count(MetricId::DramServedReal, 1);
                    }
                }
                ServedFrom::Fresh { .. } => {
                    self.stats.fresh_served += 1;
                    self.tl_count(MetricId::FreshServed, 1);
                }
                ServedFrom::Stash => {}
            }

            // The accessed block is now live in the stash: ensure it exists
            // (fresh addresses materialize here), apply the write, remap.
            let new_label = self.fresh_label();
            let version = match r.op {
                Op::Write => self.posmap.bump_version(r.addr),
                Op::Read => self.posmap.version(r.addr),
            };
            let data = match r.op {
                Op::Write => r.data,
                Op::Read => value,
            };
            if self.stash.peek(r.addr).is_some() {
                self.stash.write(r.addr, data, version);
                self.stash.relabel(r.addr, new_label, version);
            } else {
                // Fresh address (or the copy was dropped as stale): create
                // the block in the stash.
                let outcome = self.stash.insert(Block::real(r.addr, new_label, data, version));
                assert!(
                    !matches!(outcome, crate::stash::InsertOutcome::Overflow),
                    "stash overflow inserting the accessed block: the \
                     security parameter (stash capacity) is too small"
                );
            }
            // Remap: update the position map to the new label.
            self.posmap.remap_to(r.addr, new_label);
            self.posmap.set_site(r.addr, RealCopySite::Stash);
            served
        } else {
            ServedFrom::Stash
        };

        self.path_buf = path;
        (phase, served, value)
    }

    /// Whether the injected mutant suppresses the rewrite (and therefore
    /// the bus write) of the path slot at `level_idx`. Always `false`
    /// without the `mutants` feature.
    #[inline]
    fn skip_rewrite(&self, level_idx: usize, path_len: usize) -> bool {
        #[cfg(feature = "mutants")]
        {
            self.mutant == Mutant::SkipLeafRewrite && level_idx + 1 == path_len
        }
        #[cfg(not(feature = "mutants"))]
        {
            let _ = (level_idx, path_len);
            false
        }
    }

    /// Draws the uniform random leaf a remapped block moves to.
    #[inline]
    fn fresh_label(&mut self) -> LeafLabel {
        #[cfg(feature = "mutants")]
        if self.mutant == Mutant::BiasedRemap {
            return LeafLabel::new(self.rng.below(self.shape.leaf_count()) / 2);
        }
        LeafLabel::new(self.rng.below(self.shape.leaf_count()))
    }

    /// Flat DRAM index of the authoritative real copy of `addr` on `path`
    /// (used only for statistics).
    fn real_copy_flat_index(
        &self,
        path: &[BucketId],
        addr: BlockAddr,
        treetop: u32,
        z: usize,
    ) -> Option<usize> {
        let mut flat = 0usize;
        for (level, &bid) in path.iter().enumerate() {
            let on_chip = (level as u32) < treetop;
            for slot in 0..z {
                let blk = self.tree.bucket(bid)[slot];
                if !on_chip {
                    if blk.is_real()
                        && blk.addr == addr
                        && self.posmap.is_current(addr, blk.version)
                    {
                        return Some(flat);
                    }
                    flat += 1;
                } else if blk.is_real() && blk.addr == addr {
                    return Some(0);
                }
            }
        }
        None
    }

    /// One eviction: read the next reverse-lexicographic path into the
    /// stash (live), then rewrite it greedily from the stash, filling
    /// leftover dummy slots with shadow blocks per the duplication policy
    /// (Algorithm 1).
    fn evict(&mut self) -> (PathPhase, PathPhase) {
        self.stats.evictions += 1;
        self.tl_count(MetricId::Evictions, 1);
        self.tl_sample(MetricId::StashOccupancy, self.stash.live() as u64);
        let leaf = self.eviction_order.next_leaf();
        let z = self.cfg.z;
        let treetop = self.cfg.treetop_levels;
        let mut path = std::mem::take(&mut self.path_buf);
        self.shape.path_into(leaf, &mut path);

        // ---- Read half: pull every current block on the path live. ----
        self.emit(BusEvent::PhaseStart(BusPhase::EvictionRead));
        for (level, &bid) in path.iter().enumerate() {
            let on_chip = (level as u32) < treetop;
            if !on_chip {
                self.trace.record(bid, false);
                self.level_reads[level] += 1;
                self.emit(BusEvent::Bucket { bucket: bid.raw(), write: false });
            }
            for slot in 0..z {
                let blk = self.tree.bucket(bid)[slot];
                if blk.is_dummy() {
                    continue;
                }
                let current = self.posmap.is_current(blk.addr, blk.version)
                    && self.posmap.peek(blk.addr).map(|e| e.label) == Some(blk.label);
                if !current {
                    self.stats.stale_discarded += 1;
                    self.tl_count(MetricId::StaleDiscarded, 1);
                    continue;
                }
                if blk.is_real() {
                    let outcome = self.stash.insert(blk);
                    assert!(
                        !matches!(outcome, crate::stash::InsertOutcome::Overflow),
                        "stash overflow during eviction read: the security \
                         parameter (stash capacity) is too small for this run"
                    );
                    // The tree copy is about to be destroyed by the write
                    // half: the stash copy must be live.
                    self.stash.ensure_live(blk.addr);
                    self.posmap.set_site(blk.addr, RealCopySite::Stash);
                } else {
                    self.tl_count(MetricId::ShadowStashPull, 1);
                    self.stash.insert(blk);
                }
            }
        }
        self.emit(BusEvent::PhaseEnd(BusPhase::EvictionRead));

        // ---- Write half: Algorithm 1, leaf to root. ----
        // The greedy is planned once here: from now on the write half only
        // turns live stash blocks into evicted ones.
        self.stash.plan_eviction(&self.shape, leaf);
        let partition_level = self.current_partition_level();
        self.dup_queues.clear();
        // Stash-resident shadows whose real copy is in the tree are also
        // duplication candidates (Sec. V-B2) — this recirculation is what
        // lets a block's shadow outlive the rewriting of its bucket.
        let mut stash_shadow_count = 0u64;
        let recirculate = self.cfg.recirculate_stash_shadows;
        for entry in self.stash.shadow_entries().filter(|_| recirculate) {
            let blk = entry.block;
            if !self.posmap.is_current(blk.addr, blk.version) {
                continue;
            }
            if let Some(pe) = self.posmap.peek(blk.addr) {
                if let RealCopySite::Tree { level } = pe.site {
                    stash_shadow_count += 1;
                    self.dup_queues.push(DupCandidate {
                        addr: blk.addr,
                        label: blk.label,
                        data: blk.data,
                        version: blk.version,
                        real_level: level,
                        recirculated: true,
                    });
                }
            }
        }
        self.stats.stash_shadow_candidates += stash_shadow_count;
        // Recirculation supply available to this eviction's write half.
        self.tl_sample(MetricId::DupQueueDepth, self.dup_queues.len() as u64);

        // The slot-filling loop below runs leaf-first (Algorithm 1), but
        // the bus issues the rewritten path root-side first to match the
        // read pipeline — exactly the bucket order `PathPhase` derives —
        // so the observer sees the phase in issue order here.
        self.emit(BusEvent::PhaseStart(BusPhase::EvictionWrite));
        for (level_idx, &bid) in path.iter().enumerate() {
            if (level_idx as u32) < treetop || self.skip_rewrite(level_idx, path.len()) {
                continue;
            }
            self.level_writes[level_idx] += 1;
            self.emit(BusEvent::Bucket { bucket: bid.raw(), write: true });
        }
        self.emit(BusEvent::PhaseEnd(BusPhase::EvictionWrite));

        for (level_idx, &bid) in path.iter().enumerate().rev() {
            if self.skip_rewrite(level_idx, path.len()) {
                continue;
            }
            let level = level_idx as u32;
            let on_chip = level < treetop;
            if !on_chip {
                self.trace.record(bid, true);
            }
            for slot in 0..z {
                // stash_blk_select: deepest-fitting live block.
                let new_block = if let Some(blk) = self.stash.evict_planned(level) {
                    self.posmap.set_site(blk.addr, RealCopySite::Tree { level });
                    self.stats.real_blocks_written += 1;
                    // Freshly written blocks become duplication candidates
                    // for shallower (later-written) slots.
                    self.dup_queues.push(DupCandidate {
                        addr: blk.addr,
                        label: blk.label,
                        data: blk.data,
                        version: blk.version,
                        real_level: level,
                        recirculated: false,
                    });
                    blk
                } else {
                    // dup_blk_select: fill the dummy with a shadow copy.
                    match scheme_for_slot(self.cfg.dup_policy, partition_level, level) {
                        SlotScheme::Rd => {
                            match self.dup_queues.select_rd_with(
                                &self.shape,
                                leaf,
                                level,
                                self.cfg.chain_duplication,
                            ) {
                                Some(c) => {
                                    self.stats.rd_shadows_written += 1;
                                    self.tl_count(MetricId::RdShadowWritten, 1);
                                    if c.recirculated {
                                        self.stats.recirculated_shadows += 1;
                                        self.tl_count(MetricId::RecirculatedShadow, 1);
                                    }
                                    c.to_shadow_block()
                                }
                                None => self.dummy_write(),
                            }
                        }
                        SlotScheme::Hd => {
                            match self.dup_queues.select_hd_with(
                                &self.shape,
                                leaf,
                                level,
                                &self.hot,
                                self.cfg.chain_duplication,
                            ) {
                                Some(c) => {
                                    self.stats.hd_shadows_written += 1;
                                    self.tl_count(MetricId::HdShadowWritten, 1);
                                    if c.recirculated {
                                        self.stats.recirculated_shadows += 1;
                                        self.tl_count(MetricId::RecirculatedShadow, 1);
                                    }
                                    c.to_shadow_block()
                                }
                                None => self.dummy_write(),
                            }
                        }
                        SlotScheme::None => self.dummy_write(),
                    }
                };
                self.tree.bucket_mut(bid)[slot] = new_block;
            }
        }
        self.dup_queues.clear();
        self.path_buf = path;

        // The write loop above fills leaf-first, but the DRAM write order
        // is the controller's choice: the phase describes it root-side
        // first to match the read pipeline, which is exactly the derived
        // bucket order of `PathPhase`.
        (
            PathPhase::new(PhaseKind::EvictionRead, leaf, self.shape, treetop),
            PathPhase::new(PhaseKind::EvictionWrite, leaf, self.shape, treetop),
        )
    }

    fn dummy_write(&mut self) -> Block {
        self.stats.dummy_blocks_written += 1;
        self.tl_count(MetricId::DummyBlockWritten, 1);
        Block::DUMMY
    }

    fn current_partition_level(&self) -> u32 {
        match self.cfg.dup_policy {
            DupPolicy::Static { partition_level } => partition_level,
            DupPolicy::Dynamic { .. } => {
                self.dynamic.as_ref().map(|d| d.level()).unwrap_or(0)
            }
            DupPolicy::RdOnly => 0,
            DupPolicy::HdOnly => self.cfg.levels + 1,
            DupPolicy::Off => 0,
        }
    }

    /// Checks the Path ORAM invariant for every current block: the live
    /// copy of each address is either in the stash or on the path to its
    /// label, and every current shadow sits strictly root-ward of its real
    /// copy. Also checks the stash's derived state (slot-class index, CAM
    /// index, live count) against its slots. O(tree); test/diagnostic use
    /// only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.stash.check_invariants().map_err(|e| format!("stash: {e}"))?;
        let shape = self.shape;
        for raw in 1..=shape.bucket_count() {
            let bid = BucketId::new(raw);
            let level = bid.level();
            for blk in self.tree.bucket(bid) {
                if blk.is_dummy() {
                    continue;
                }
                let Some(pe) = self.posmap.peek(blk.addr) else {
                    return Err(format!("tree block {} unknown to posmap", blk.addr));
                };
                let current = pe.version == blk.version && pe.label == blk.label;
                if !current {
                    continue; // stale copies are permitted garbage
                }
                // Rule-1 / Path ORAM invariant: on the path to its label.
                if shape.bucket_on_path(blk.label, level) != bid {
                    return Err(format!(
                        "{} ({}) at bucket {} level {} is off the path to {}",
                        blk.addr, blk.kind, raw, level, blk.label
                    ));
                }
                // Rule-2 is enforced at creation time (see
                // `DupCandidate::eligible_at`); a later eviction may
                // re-place the real copy root-ward of an old shadow, which
                // is harmless: both copies are current, identical, and on
                // the label path, so any load of one loads the other.
                // Here we only require that current shadows carry data
                // matching the live copy's version, which the `current`
                // check above already guaranteed.
            }
        }
        Ok(())
    }

    /// Immutable view of the tree (diagnostics / tests).
    pub fn tree(&self) -> &OramTree {
        &self.tree
    }

    /// Immutable view of the stash (diagnostics / tests).
    pub fn stash(&self) -> &Stash {
        &self.stash
    }

    /// Immutable view of the Hot Address Cache (diagnostics / tests).
    pub fn hot_cache(&self) -> &HotAddressCache {
        &self.hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::DupPolicy;

    fn controller(policy: DupPolicy) -> OramController {
        OramController::new(OramConfig::small_test().with_dup_policy(policy)).unwrap()
    }

    #[test]
    fn level_touches_cover_offchip_levels_only() {
        let mut ctl = controller(DupPolicy::RdOnly);
        run_workload(&mut ctl, 200);
        let treetop = ctl.config().treetop_levels as usize;
        let (reads, writes) = ctl.level_touches();
        assert_eq!(reads.len(), ctl.config().levels as usize + 1);
        assert_eq!(writes.len(), reads.len());
        assert!(reads[..treetop].iter().all(|&n| n == 0), "treetop never reaches the bus");
        assert!(writes[..treetop].iter().all(|&n| n == 0));
        assert!(reads[treetop..].iter().all(|&n| n > 0), "every off-chip level read");
        assert!(writes[treetop..].iter().all(|&n| n > 0), "evictions rewrite every level");
        // Stash hits add no touches: reads per level equals path reads.
        let path_reads = ctl.stats().ro_path_reads + ctl.stats().evictions;
        assert!(reads[treetop..].iter().all(|&n| n == path_reads));
    }

    fn run_workload(ctl: &mut OramController, n: u64) {
        // Interleaved writes and reads over a modest working set.
        for i in 0..n {
            let addr = BlockAddr::new(i % 37);
            if i % 3 == 0 {
                ctl.access(Request::write(addr, i));
            } else {
                ctl.access(Request::read(addr));
            }
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut ctl = controller(DupPolicy::Off);
        ctl.access(Request::write(BlockAddr::new(9), 77));
        let r = ctl.access(Request::read(BlockAddr::new(9)));
        assert_eq!(r.value, 77);
    }

    #[test]
    fn fresh_read_returns_zero() {
        let mut ctl = controller(DupPolicy::Off);
        let r = ctl.access(Request::read(BlockAddr::new(1000)));
        assert_eq!(r.value, 0);
        assert!(matches!(r.served, ServedFrom::Fresh { .. }));
    }

    #[test]
    fn consistency_against_reference_model_all_policies() {
        for policy in [
            DupPolicy::Off,
            DupPolicy::RdOnly,
            DupPolicy::HdOnly,
            DupPolicy::Static { partition_level: 3 },
            DupPolicy::Dynamic { counter_bits: 3 },
        ] {
            let mut ctl = controller(policy);
            let mut reference = std::collections::HashMap::new();
            let mut x = 0x9E3779B97F4A7C15u64;
            for step in 0..3000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = BlockAddr::new(x % 61);
                if x % 5 < 2 {
                    ctl.access(Request::write(addr, step));
                    reference.insert(addr, step);
                } else {
                    let r = ctl.access(Request::read(addr));
                    let expect = reference.get(&addr).copied().unwrap_or(0);
                    assert_eq!(
                        r.value, expect,
                        "policy {policy:?} step {step} addr {addr}"
                    );
                }
                if step % 500 == 0 {
                    ctl.check_invariants().expect("invariants hold");
                }
            }
            ctl.check_invariants().expect("final invariants");
        }
    }

    #[test]
    fn evictions_fire_every_a_minus_one_accesses() {
        let mut ctl = controller(DupPolicy::Off);
        let a = ctl.config().eviction_rate;
        run_workload(&mut ctl, 100);
        let s = ctl.stats();
        // Only path-reading accesses advance the schedule.
        let expected = s.ro_path_reads / (a as u64 - 1);
        assert_eq!(s.evictions, expected);
    }

    #[test]
    fn shadow_blocks_appear_with_duplication_enabled() {
        let mut ctl = controller(DupPolicy::RdOnly);
        run_workload(&mut ctl, 400);
        assert!(ctl.stats().rd_shadows_written > 0, "RD-Dup wrote shadows");
        assert!(ctl.tree().shadow_block_count() > 0);
        ctl.check_invariants().unwrap();
    }

    #[test]
    fn baseline_never_writes_shadows() {
        let mut ctl = controller(DupPolicy::Off);
        run_workload(&mut ctl, 400);
        assert_eq!(ctl.stats().rd_shadows_written, 0);
        assert_eq!(ctl.stats().hd_shadows_written, 0);
        assert_eq!(ctl.tree().shadow_block_count(), 0);
    }

    #[test]
    fn rd_dup_advances_served_positions() {
        let mut base = controller(DupPolicy::Off);
        let mut rd = controller(DupPolicy::RdOnly);
        // Cyclic reads over a set large enough to miss the stash.
        for i in 0..4000u64 {
            let addr = BlockAddr::new(i % 97);
            base.access(Request::read(addr));
            rd.access(Request::read(addr));
        }
        assert!(rd.stats().shadow_advanced > 0, "some accesses were advanced");
        assert!(
            rd.stats().mean_served_position() < base.stats().mean_served_position(),
            "RD-Dup should reduce the mean serving position: {} vs {}",
            rd.stats().mean_served_position(),
            base.stats().mean_served_position()
        );
    }

    #[test]
    fn hd_dup_increases_stash_hits_on_hot_data() {
        let mut base = controller(DupPolicy::Off);
        let mut hd = controller(DupPolicy::HdOnly);
        // 60% of accesses hit a 24-address hot set whose recurrence
        // interval (~40 accesses) outlives the stash's natural caching
        // window but fits the lifetime of root-ward shadow copies; the
        // rest is a cold stream. Total working set stays below half the
        // tree.
        let mut x = 1234567u64;
        for i in 0..6000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if x % 10 < 6 {
                BlockAddr::new(x % 24)
            } else {
                BlockAddr::new(1000 + (i % 120))
            };
            base.access(Request::read(addr));
            hd.access(Request::read(addr));
        }
        // The mechanism: shadow-kind stash hits exist only under HD-Dup.
        assert!(
            hd.stats().shadow_stash_served > 0,
            "HD-Dup should serve some requests from shadow stash entries"
        );
        assert_eq!(base.stats().shadow_stash_served, 0);
        assert!(hd.stats().hd_shadows_written > 0);
        // And it must not meaningfully hurt overall on-chip hits at this
        // toy scale (the quantitative gain is a system-level experiment,
        // reproduced as Fig. 16 by the bench harness).
        assert!(
            hd.stats().stash_served as f64 >= base.stats().stash_served as f64 * 0.9,
            "HD-Dup regressed stash hits: {} vs {}",
            hd.stats().stash_served,
            base.stats().stash_served
        );
    }

    #[test]
    fn dummy_accesses_produce_phases_but_serve_nothing() {
        let mut ctl = controller(DupPolicy::Off);
        let r = ctl.dummy_access();
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].kind, PhaseKind::ReadOnly);
        assert_eq!(ctl.stats().dummy_requests, 1);
        assert_eq!(ctl.stats().real_requests, 0);
    }

    #[test]
    fn treetop_serves_top_levels_on_chip() {
        let run = |treetop: u32| {
            let cfg = OramConfig::small_test()
                .with_dup_policy(DupPolicy::RdOnly)
                .with_treetop(treetop);
            let mut ctl = OramController::new(cfg).unwrap();
            for i in 0..4000u64 {
                ctl.access(Request::read(BlockAddr::new(i % 150)));
            }
            ctl
        };
        let with_tt = run(3);
        let without_tt = run(0);
        // Treetop levels are excluded from DRAM phases, so the mean DRAM
        // serving position drops when the shadow-rich top levels are held
        // on chip.
        assert!(
            with_tt.stats().mean_served_position()
                < without_tt.stats().mean_served_position(),
            "treetop should shave root-side DRAM blocks: {} vs {}",
            with_tt.stats().mean_served_position(),
            without_tt.stats().mean_served_position()
        );
        assert!(with_tt.stats().on_chip_hit_rate() > 0.2, "on-chip hits exist");
        // DRAM phases exclude treetop buckets.
        let mut ctl = with_tt;
        let r = ctl.access(Request::read(BlockAddr::new(5000)));
        for p in &r.phases {
            for b in p.buckets() {
                assert!(b.level() >= 3, "treetop bucket leaked into DRAM phase");
            }
        }
    }

    #[test]
    fn prefill_places_blocks_and_preserves_invariants() {
        let mut ctl = controller(DupPolicy::Off);
        ctl.prefill((0..200u64).map(|i| (BlockAddr::new(i), i * 7)));
        ctl.check_invariants().unwrap();
        for i in (0..200u64).step_by(17) {
            let r = ctl.access(Request::read(BlockAddr::new(i)));
            assert_eq!(r.value, i * 7);
        }
    }

    #[test]
    fn trace_records_bus_events_when_enabled() {
        let cfg = OramConfig::small_test().with_trace();
        let mut ctl = OramController::new(cfg).unwrap();
        ctl.access(Request::read(BlockAddr::new(1)));
        assert!(!ctl.trace().is_empty());
        // A read-only access touches exactly L+1 buckets.
        assert_eq!(ctl.trace().len(), ctl.shape().levels() as usize + 1);
    }

    #[test]
    fn stats_positions_are_consistent() {
        let mut ctl = controller(DupPolicy::RdOnly);
        run_workload(&mut ctl, 2000);
        let s = ctl.stats();
        let max_pos = (ctl.shape().blocks_per_path() - 1) as f64;
        let mean = s.mean_served_position();
        assert!((0.0..=max_pos).contains(&mean), "mean {mean} out of range");
    }

    #[test]
    fn hd_dup_runs_with_disabled_hot_cache() {
        // Size-0 Hot Address Cache: HD-Dup must still be functional
        // (arbitrary candidate choice), just unguided.
        let mut cfg = OramConfig::small_test().with_dup_policy(DupPolicy::HdOnly);
        cfg.hot_cache_sets = 0;
        let mut ctl = OramController::new(cfg).unwrap();
        assert!(!ctl.hot_cache().is_enabled());
        run_workload(&mut ctl, 600);
        assert!(ctl.stats().hd_shadows_written > 0, "HD-Dup still fills slots");
        ctl.check_invariants().unwrap();
    }

    #[test]
    fn hot_cache_counters_survive_posmap_remaps() {
        // The Hot Address Cache is keyed by program address; every access
        // remaps the block to a new leaf, and hotness must accumulate
        // across those remaps rather than reset.
        let mut ctl = controller(DupPolicy::HdOnly);
        for _ in 0..8 {
            ctl.access(Request::read(BlockAddr::new(3)));
        }
        assert_eq!(ctl.hot_cache().priority(BlockAddr::new(3)), 8);
    }

    #[test]
    fn dynamic_policy_reports_partition_level() {
        let ctl = controller(DupPolicy::Dynamic { counter_bits: 3 });
        assert!(ctl.partition_level().is_some());
        let ctl = controller(DupPolicy::Off);
        assert!(ctl.partition_level().is_none());
    }

    #[test]
    fn split_phase_access_matches_monolithic_access() {
        // access() is defined as issue + complete; a controller driven
        // through the split API must stay bit-identical to one driven
        // through the monolithic call — results, stats, and trace.
        let cfg = OramConfig::small_test().with_trace();
        let mut whole = OramController::new(cfg).unwrap();
        let mut split = OramController::new(cfg).unwrap();
        for i in 0..500u64 {
            let addr = BlockAddr::new((i * 13) % 96);
            let req = if i % 5 == 0 { Request::write(addr, i) } else { Request::read(addr) };
            let a = whole.access(req);
            let (mut b, ticket) = split.access_issue(req);
            assert!(b.phases.len() <= 1, "issue half carries at most the RO phase");
            if let Some((er, ew)) = split.access_complete(ticket) {
                assert!(ticket.eviction_due());
                b.phases.push(er);
                b.phases.push(ew);
            }
            assert_eq!(a, b, "access {i}");
        }
        assert_eq!(whole.stats(), split.stats());
        assert_eq!(whole.trace(), split.trace());
    }

    #[test]
    fn stash_hit_tickets_are_inert() {
        let mut ctl = controller(DupPolicy::Off);
        ctl.access(Request::write(BlockAddr::new(7), 1));
        // The fresh write leaves the block stash-resident; the re-read is
        // a pure stash hit whose ticket completes to nothing.
        let (r, ticket) = ctl.access_issue(Request::read(BlockAddr::new(7)));
        assert_eq!(r.served, ServedFrom::Stash);
        assert!(!ticket.open());
        assert!(!ticket.eviction_due());
        assert!(ctl.access_complete(ticket).is_none());
    }
}
