//! Shadow-block generation: duplication candidate queues (RD-queue and
//! HD-queue), the partitioning boundary between RD-Dup and HD-Dup, and the
//! DRI saturating counter that drives dynamic partitioning.
//!
//! Terminology (matching the paper): levels are numbered from the root
//! (level 0) to the leaves (level `L`). A path read proceeds root→leaf, so
//! a block at a *larger* level number is accessed *later* — that is the
//! "rear data" RD-Dup advances. HD-Dup instead wants the root-ward levels,
//! which are shared by many paths and therefore pulled into the stash most
//! often. The partitioning level `P` splits the tree: dummy slots at
//! levels `>= P` are filled by RD-Dup, slots at levels `< P` by HD-Dup.


use crate::hotcache::{HotAddressCache, HotStamp};
use crate::tree::TreeShape;
use crate::types::{Block, BlockAddr, LeafLabel, Version};

/// How dummy slots are (or are not) filled with shadow blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupPolicy {
    /// Baseline Tiny ORAM: dummy slots stay dummy.
    Off,
    /// Pure Rear Data Duplication (equivalent to a partitioning level of 0).
    RdOnly,
    /// Pure Hot Data Duplication (partitioning level above the leaf level).
    HdOnly,
    /// Static partitioning at a fixed level.
    Static {
        /// The partitioning level `P`: RD-Dup at levels `>= P`, HD-Dup below.
        partition_level: u32,
    },
    /// Dynamic partitioning driven by the DRI saturating counter.
    Dynamic {
        /// Width of the DRI counter in bits (the paper finds 3 optimal).
        counter_bits: u32,
    },
}

impl DupPolicy {
    /// Returns `true` if any duplication happens at all.
    pub fn is_enabled(self) -> bool {
        !matches!(self, DupPolicy::Off)
    }
}

/// A block eligible for duplication into a dummy slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DupCandidate {
    /// Program address of the copied block.
    pub addr: BlockAddr,
    /// Leaf label the copy is bound to (Rule-1 constrains placement to
    /// buckets on this label's path).
    pub label: LeafLabel,
    /// Payload.
    pub data: u64,
    /// Version stamp of the copy.
    pub version: Version,
    /// Level of the authoritative real copy in the tree; Rule-2 only
    /// permits shadows strictly closer to the root than this.
    pub real_level: u32,
    /// `true` when this candidate is a recirculated stash shadow rather
    /// than a block written back by the current path write (diagnostics).
    pub recirculated: bool,
}

impl DupCandidate {
    /// Materializes the shadow block for this candidate.
    pub fn to_shadow_block(&self) -> Block {
        Block {
            kind: crate::types::BlockKind::Shadow,
            addr: self.addr,
            label: self.label,
            data: self.data,
            version: self.version,
        }
    }

    /// Checks Rules 1 and 2 for placing this candidate's shadow at
    /// `slot_level` on the path to `eviction_leaf`.
    pub fn eligible_at(&self, shape: &TreeShape, eviction_leaf: LeafLabel, slot_level: u32) -> bool {
        slot_level < self.real_level
            && shape.common_level(eviction_leaf, self.label) >= slot_level
    }
}

/// The duplication candidate pool built during one path write.
///
/// The paper models this as two hardware queues (RD-queue sorted by level,
/// HD-queue sorted by Hot Address Cache counters) that are cleared when the
/// path write completes; this struct is the behavioural equivalent with a
/// single pool and two selection orders.
///
/// Within one path write the eviction leaf is fixed, and so is the Hot
/// Address Cache (it only changes when an access is issued). The pool
/// therefore computes each candidate's common level with the leaf and its
/// HD priority once, and links the candidate into a list per common level:
/// a dummy slot at level `s` scans only the lists `>= s` (Rule-1), about
/// `n / 2^s` candidates instead of all `n`. Both cached values are
/// recomputed if a selection names a different leaf or the cache has
/// changed since, so the pool answers exactly as a full scan would.
#[derive(Debug, Clone, Default)]
pub struct DupQueues {
    /// The candidates, in the order a linear pool would hold them
    /// (push order, disturbed only by `swap_remove`); positions break
    /// selection ties.
    candidates: Vec<DupCandidate>,
    /// Selection state of each candidate, parallel to `candidates`.
    links: Vec<Link>,
    /// `heads[l]`: the first indexed candidate whose common level with the
    /// keyed leaf is `l`, or [`NIL`].
    heads: Vec<u32>,
    /// Tree depth and eviction leaf the lists are keyed to.
    keyed: Option<(u32, LeafLabel)>,
    /// Candidates `[0, indexed)` are linked into the lists.
    indexed: usize,
    /// Candidates `[0, prioritized)` hold their priority under `hot`.
    prioritized: usize,
    /// Hot Address Cache state the cached priorities were read from.
    hot: Option<HotStamp>,
}

/// End of a per-level list.
const NIL: u32 = u32::MAX;

/// A candidate's selection keys and its place in its level's list.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The candidate's current `real_level` (the RD key and Rule-2 bound).
    real_level: u32,
    /// Common level of the candidate's label with the keyed leaf.
    common_level: u32,
    /// Neighbours in the common level's list (positions, or [`NIL`]).
    prev: u32,
    next: u32,
    /// Hot Address Cache priority (the HD key), valid below `prioritized`.
    priority: u64,
}

impl DupQueues {
    /// An empty pool.
    pub fn new() -> Self {
        DupQueues::default()
    }

    /// An empty pool that holds `candidates` candidates for a tree of
    /// depth `levels` without allocating. One path write enqueues at most
    /// `M + (L+1)·Z` candidates: every stash shadow plus every block it
    /// writes back.
    pub fn with_capacity(levels: u32, candidates: usize) -> Self {
        DupQueues {
            candidates: Vec::with_capacity(candidates),
            links: Vec::with_capacity(candidates),
            heads: vec![NIL; levels as usize + 1],
            ..DupQueues::default()
        }
    }

    /// Number of candidates currently enqueued.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Returns `true` when no candidates are enqueued.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Enqueues a candidate (a block just evicted deeper on this path, or a
    /// stash-resident shadow whose real copy sits in the tree).
    pub fn push(&mut self, c: DupCandidate) {
        self.candidates.push(c);
        self.links.push(Link {
            real_level: c.real_level,
            common_level: 0,
            prev: NIL,
            next: NIL,
            priority: 0,
        });
    }

    /// RD-Dup selection: among the eligible candidates, the one whose
    /// most-root-ward copy sits at the **deepest** level (the rear data).
    ///
    /// The candidate is *not* removed: following the paper's Fig. 4
    /// ("the level of Data-A has changed to level-1 after duplication"),
    /// its effective level becomes the new shadow's level, so the same
    /// block can keep climbing through dummy slots toward the root across
    /// the path write — that chain is what produces large advances.
    pub fn select_rd(
        &mut self,
        shape: &TreeShape,
        eviction_leaf: LeafLabel,
        slot_level: u32,
    ) -> Option<DupCandidate> {
        self.select_rd_with(shape, eviction_leaf, slot_level, true)
    }

    /// [`DupQueues::select_rd`] with the chain behaviour made explicit
    /// (`chain = false` pops the candidate instead — the ablation mode,
    /// which moves the last candidate into the popped one's position).
    ///
    /// Tie-break: the largest `real_level`, and among equal levels the
    /// candidate at the highest position — the last one pushed, unless a
    /// pop has moved candidates since (what `Iterator::max_by_key` over
    /// the pool returns).
    pub fn select_rd_with(
        &mut self,
        shape: &TreeShape,
        eviction_leaf: LeafLabel,
        slot_level: u32,
        chain: bool,
    ) -> Option<DupCandidate> {
        self.index(shape, eviction_leaf);
        let idx = self.select_max(slot_level, |l| u64::from(l.real_level))?;
        Some(self.take(idx, slot_level, chain))
    }

    /// HD-Dup selection: among the eligible candidates, the one with the
    /// highest Hot Address Cache counter (zero when uncached). As with
    /// [`DupQueues::select_rd`], the candidate's effective level becomes
    /// the shadow's level, so a hot block is duplicated at most once per
    /// level but can climb toward the root.
    pub fn select_hd(
        &mut self,
        shape: &TreeShape,
        eviction_leaf: LeafLabel,
        slot_level: u32,
        hot: &HotAddressCache,
    ) -> Option<DupCandidate> {
        self.select_hd_with(shape, eviction_leaf, slot_level, hot, true)
    }

    /// [`DupQueues::select_hd`] with the chain behaviour made explicit
    /// (`chain = false` pops the candidate instead — the ablation mode,
    /// which moves the last candidate into the popped one's position).
    ///
    /// Tie-break: the highest priority, and among equal priorities the
    /// candidate at the highest position, as for
    /// [`DupQueues::select_rd_with`]. With the cache disabled every
    /// priority is zero, so the highest eligible position wins.
    pub fn select_hd_with(
        &mut self,
        shape: &TreeShape,
        eviction_leaf: LeafLabel,
        slot_level: u32,
        hot: &HotAddressCache,
        chain: bool,
    ) -> Option<DupCandidate> {
        self.index(shape, eviction_leaf);
        self.prioritize(hot);
        let idx = self.select_max(slot_level, |l| l.priority)?;
        Some(self.take(idx, slot_level, chain))
    }

    /// Clears the pool (called when the path write completes).
    pub fn clear(&mut self) {
        self.candidates.clear();
        self.links.clear();
        self.heads.fill(NIL);
        self.indexed = 0;
        self.prioritized = 0;
    }

    /// Links every unindexed candidate into the list of its common level
    /// with `leaf`, first re-keying the lists if `leaf` (or the depth) is
    /// not the one they were built for.
    fn index(&mut self, shape: &TreeShape, leaf: LeafLabel) {
        let key = (shape.levels(), leaf);
        if self.keyed != Some(key) {
            self.keyed = Some(key);
            self.indexed = 0;
            self.heads.clear();
            self.heads.resize(shape.levels() as usize + 1, NIL);
        }
        for pos in self.indexed..self.candidates.len() {
            let common_level = shape.common_level(leaf, self.candidates[pos].label);
            let head = self.heads[common_level as usize];
            self.set_prev(head, pos as u32);
            self.set_next(NIL, common_level, pos as u32);
            let link = &mut self.links[pos];
            link.common_level = common_level;
            link.prev = NIL;
            link.next = head;
        }
        self.indexed = self.candidates.len();
    }

    /// Reads the priority of every candidate not yet read under `hot`'s
    /// current state.
    fn prioritize(&mut self, hot: &HotAddressCache) {
        let stamp = hot.stamp();
        if self.hot != Some(stamp) {
            self.hot = Some(stamp);
            self.prioritized = 0;
        }
        for pos in self.prioritized..self.candidates.len() {
            self.links[pos].priority = hot.priority(self.candidates[pos].addr);
        }
        self.prioritized = self.candidates.len();
    }

    /// The position of the eligible candidate with the largest `key`, the
    /// highest position among equal keys. Rule-1 (the candidate's path
    /// passes through the slot) is the list bound; Rule-2 (strictly
    /// root-ward of the real copy) is checked per candidate.
    ///
    /// Each candidate is scored as `(key, pos)` packed into one integer,
    /// zero when ineligible, and the scan keeps the maximum: no
    /// data-dependent branch, which matters because eligibility is close
    /// to a coin flip.
    fn select_max(&self, slot_level: u32, key: impl Fn(&Link) -> u64) -> Option<usize> {
        let mut best = 0u128;
        for &head in self.heads.iter().skip(slot_level as usize) {
            let mut pos = head;
            while pos != NIL {
                let l = &self.links[pos as usize];
                let score = (u128::from(key(l)) << 33) | (u128::from(pos) << 1) | 1;
                best = best.max(if l.real_level > slot_level { score } else { 0 });
                pos = l.next;
            }
        }
        (best != 0).then_some((best >> 1) as u32 as usize)
    }

    /// Returns the candidate at `idx` after a selection at `slot_level`:
    /// chained, it stays with its effective level lowered to the slot;
    /// otherwise it is popped with `swap_remove` semantics.
    fn take(&mut self, idx: usize, slot_level: u32, chain: bool) -> DupCandidate {
        let picked = self.candidates[idx];
        if chain {
            self.candidates[idx].real_level = slot_level;
            self.links[idx].real_level = slot_level;
        } else {
            self.swap_remove(idx);
        }
        picked
    }

    /// `Vec::swap_remove` on the pool, keeping the lists and caches in
    /// step: the last candidate takes position `idx`. Every candidate is
    /// indexed here (a selection just ran).
    fn swap_remove(&mut self, idx: usize) {
        debug_assert_eq!(self.indexed, self.candidates.len());
        let last = self.candidates.len() - 1;
        let gone = self.links[idx];
        self.set_next(gone.prev, gone.common_level, gone.next);
        self.set_prev(gone.next, gone.prev);
        if idx != last {
            let moved = self.links[last];
            self.set_next(moved.prev, moved.common_level, idx as u32);
            self.set_prev(moved.next, idx as u32);
        }
        self.candidates.swap_remove(idx);
        self.links.swap_remove(idx);
        self.indexed = last;
        self.prioritized = if self.prioritized > last { last } else { self.prioritized.min(idx) };
    }

    /// Sets the successor of `pos` in the list of `level`; a `pos` of
    /// [`NIL`] sets the list head.
    fn set_next(&mut self, pos: u32, level: u32, next: u32) {
        match pos {
            NIL => self.heads[level as usize] = next,
            _ => self.links[pos as usize].next = next,
        }
    }

    /// Sets the predecessor of `pos`, unless `pos` is [`NIL`].
    fn set_prev(&mut self, pos: u32, prev: u32) {
        if pos != NIL {
            self.links[pos as usize].prev = prev;
        }
    }
}

/// The saturating Data-Request-Interval counter (paper Sec. IV-D2).
///
/// The counter observes the request stream: a dummy request following a
/// real one signals a long DRI (+1, RD-Dup territory); two consecutive
/// real requests signal short DRIs (−1, HD-Dup territory). It saturates at
/// `0` and `2^bits − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriCounter {
    bits: u32,
    value: u32,
    prev_was_real: Option<bool>,
}

impl DriCounter {
    /// Creates a counter of the given width, starting at the midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 16.
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "counter width out of range");
        DriCounter { bits, value: 1 << (bits - 1), prev_was_real: None }
    }

    /// Maximum (saturated) value `2^bits − 1`.
    pub fn max(&self) -> u32 {
        (1 << self.bits) - 1
    }

    /// Current counter value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Records one ORAM request (`is_real == false` for dummy requests).
    pub fn record(&mut self, is_real: bool) {
        if let Some(prev_real) = self.prev_was_real {
            if prev_real && !is_real {
                self.value = (self.value + 1).min(self.max());
            } else if prev_real && is_real {
                self.value = self.value.saturating_sub(1);
            }
        }
        self.prev_was_real = Some(is_real);
    }

    /// Long-DRI indication: the counter is at or above the half-maximum,
    /// meaning RD-Dup is preferred and the partitioning level should fall.
    pub fn prefers_rd(&self) -> bool {
        self.value >= self.max().div_ceil(2)
    }
}

/// Dynamic partitioning state: the DRI counter plus the partitioning-level
/// register it steers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicPartitioner {
    counter: DriCounter,
    level: u32,
    max_level: u32,
}

impl DynamicPartitioner {
    /// Creates a dynamic partitioner for a tree whose deepest level is
    /// `max_level` (= `L`), starting at the midpoint level.
    pub fn new(counter_bits: u32, max_level: u32) -> Self {
        DynamicPartitioner {
            counter: DriCounter::new(counter_bits),
            level: max_level / 2,
            max_level,
        }
    }

    /// Current partitioning level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Reference to the underlying counter.
    pub fn counter(&self) -> &DriCounter {
        &self.counter
    }

    /// Feeds one request observation and nudges the partitioning level:
    /// short DRIs (counter below half) grow the HD-Dup region, long DRIs
    /// shrink it (paper Sec. IV-D2).
    pub fn on_request(&mut self, is_real: bool) {
        self.counter.record(is_real);
        if self.counter.prefers_rd() {
            self.level = self.level.saturating_sub(1);
        } else if self.level < self.max_level {
            self.level += 1;
        }
    }
}

/// Which duplication scheme a given dummy slot should use, resolved from
/// the policy and the current partitioning level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotScheme {
    /// Leave the slot dummy.
    None,
    /// Fill via RD-queue.
    Rd,
    /// Fill via HD-queue.
    Hd,
}

/// Resolves the scheme for a dummy slot at `slot_level` given the
/// partitioning level: RD-Dup at and below the boundary toward the leaves
/// (`slot_level >= partition_level`), HD-Dup toward the root.
pub fn scheme_for_slot(policy: DupPolicy, partition_level: u32, slot_level: u32) -> SlotScheme {
    match policy {
        DupPolicy::Off => SlotScheme::None,
        DupPolicy::RdOnly => SlotScheme::Rd,
        DupPolicy::HdOnly => SlotScheme::Hd,
        DupPolicy::Static { .. } | DupPolicy::Dynamic { .. } => {
            if slot_level >= partition_level {
                SlotScheme::Rd
            } else {
                SlotScheme::Hd
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(addr: u64, label: u64, real_level: u32) -> DupCandidate {
        DupCandidate {
            addr: BlockAddr::new(addr),
            label: LeafLabel::new(label),
            data: addr * 10,
            version: 1,
            real_level,
            recirculated: false,
        }
    }

    /// The linear pool the bucketed [`DupQueues`] replaced, kept as the
    /// reference it must agree with choice for choice.
    #[derive(Default)]
    struct LinearDupQueues {
        candidates: Vec<DupCandidate>,
    }

    impl LinearDupQueues {
        fn select_rd_with(
            &mut self,
            shape: &TreeShape,
            eviction_leaf: LeafLabel,
            slot_level: u32,
            chain: bool,
        ) -> Option<DupCandidate> {
            let idx = self
                .candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| c.eligible_at(shape, eviction_leaf, slot_level))
                .max_by_key(|(_, c)| c.real_level)?
                .0;
            Some(self.take(idx, slot_level, chain))
        }

        fn select_hd_with(
            &mut self,
            shape: &TreeShape,
            eviction_leaf: LeafLabel,
            slot_level: u32,
            hot: &HotAddressCache,
            chain: bool,
        ) -> Option<DupCandidate> {
            let idx = self
                .candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| c.eligible_at(shape, eviction_leaf, slot_level))
                .max_by_key(|(_, c)| hot.priority(c.addr))?
                .0;
            Some(self.take(idx, slot_level, chain))
        }

        fn take(&mut self, idx: usize, slot_level: u32, chain: bool) -> DupCandidate {
            let picked = self.candidates[idx];
            if chain {
                self.candidates[idx].real_level = slot_level;
            } else {
                self.candidates.swap_remove(idx);
            }
            picked
        }
    }

    #[test]
    fn bucketed_selection_matches_linear_reference() {
        use oram_util::Rng64;
        let shape = TreeShape::new(6, 4);
        let levels = shape.levels();
        // (sets, ways): a small cache (few distinct counts, many ties at
        // zero) and a disabled one (every priority zero).
        for (seed, chain, (sets, ways)) in [
            (1u64, true, (4usize, 2usize)),
            (2, false, (4, 2)),
            (3, true, (0, 0)),
            (4, false, (0, 0)),
            (5, false, (1, 1)),
        ] {
            let mut rng = Rng64::seed_from_u64(seed);
            let mut hot = [HotAddressCache::new(sets, ways), HotAddressCache::new(sets, ways)];
            let mut which = 0;
            // A preallocated pool and a default one that must grow.
            for mut q in [DupQueues::with_capacity(levels, 64), DupQueues::new()] {
                let mut r = LinearDupQueues::default();
                let mut leaf = LeafLabel::new(rng.below(shape.leaf_count()));
                for _ in 0..6_000 {
                    match rng.below(20) {
                        0..=7 => {
                            let c = DupCandidate {
                                addr: BlockAddr::new(rng.below(24)),
                                label: LeafLabel::new(rng.below(shape.leaf_count())),
                                data: rng.next_u64(),
                                version: rng.below(4),
                                real_level: rng.below(u64::from(levels) + 2) as u32,
                                recirculated: rng.gen_bool(0.5),
                            };
                            q.push(c);
                            r.candidates.push(c);
                        }
                        8..=11 => {
                            let level = rng.below(u64::from(levels) + 2) as u32;
                            assert_eq!(
                                q.select_rd_with(&shape, leaf, level, chain),
                                r.select_rd_with(&shape, leaf, level, chain)
                            );
                        }
                        12..=15 => {
                            let level = rng.below(u64::from(levels) + 2) as u32;
                            assert_eq!(
                                q.select_hd_with(&shape, leaf, level, &hot[which], chain),
                                r.select_hd_with(&shape, leaf, level, &hot[which], chain)
                            );
                        }
                        16 => hot[which].observe(BlockAddr::new(rng.below(24))),
                        17 => which = 1 - which,
                        18 => match rng.below(8) {
                            0 => {
                                q.clear();
                                r.candidates.clear();
                            }
                            // Clones start equal and then diverge.
                            1 => hot[1 - which] = hot[which].clone(),
                            _ => leaf = LeafLabel::new(rng.below(shape.leaf_count())),
                        },
                        _ => {
                            // A different depth re-keys the pool too.
                            let other = TreeShape::new(levels + 1, 4);
                            let leaf2 = LeafLabel::new(rng.below(other.leaf_count()));
                            assert_eq!(
                                q.select_rd_with(&other, leaf2, 2, chain),
                                r.select_rd_with(&other, leaf2, 2, chain)
                            );
                        }
                    }
                    assert_eq!(q.candidates, r.candidates);
                    assert_eq!(q.len(), r.candidates.len());
                }
            }
        }
    }

    #[test]
    fn eligibility_enforces_both_rules() {
        let shape = TreeShape::new(3, 2);
        let c = cand(1, 0b000, 2);
        let leaf = LeafLabel::new(0);
        assert!(c.eligible_at(&shape, leaf, 1), "root-ward slot on same path");
        assert!(!c.eligible_at(&shape, leaf, 2), "Rule-2: same level rejected");
        assert!(!c.eligible_at(&shape, leaf, 3), "Rule-2: deeper rejected");
        // A leaf that diverges immediately only shares the root.
        let far = LeafLabel::new(0b100);
        assert!(c.eligible_at(&shape, far, 0));
        assert!(!c.eligible_at(&shape, far, 1), "Rule-1: off-path rejected");
    }

    #[test]
    fn rd_selection_prefers_deepest_real_copy() {
        let shape = TreeShape::new(3, 2);
        let mut q = DupQueues::new();
        q.push(cand(1, 0, 2));
        q.push(cand(2, 0, 3)); // rear data
        q.push(cand(3, 0, 1));
        let picked = q.select_rd(&shape, LeafLabel::new(0), 1).unwrap();
        assert_eq!(picked.addr, BlockAddr::new(2));
        assert_eq!(q.len(), 3, "candidates stay queued with updated level");
        // The same block is no longer eligible at the same level (its
        // effective level is now 1), so the next pick differs.
        let second = q.select_rd(&shape, LeafLabel::new(0), 1).unwrap();
        assert_eq!(second.addr, BlockAddr::new(1));
        // At a shallower slot the chain continues: every candidate now
        // sits at effective level 1, so any of them may be picked.
        let third = q.select_rd(&shape, LeafLabel::new(0), 0).unwrap();
        assert_eq!(third.real_level, 1, "chain continues from level 1");
    }

    #[test]
    fn hd_selection_prefers_hottest() {
        let shape = TreeShape::new(3, 2);
        let mut hot = HotAddressCache::new(8, 2);
        for _ in 0..5 {
            hot.observe(BlockAddr::new(3));
        }
        hot.observe(BlockAddr::new(1));
        let mut q = DupQueues::new();
        q.push(cand(1, 0, 2));
        q.push(cand(3, 0, 2));
        let picked = q.select_hd(&shape, LeafLabel::new(0), 0, &hot).unwrap();
        assert_eq!(picked.addr, BlockAddr::new(3));
    }

    #[test]
    fn selection_respects_eligibility() {
        let shape = TreeShape::new(3, 2);
        let mut q = DupQueues::new();
        q.push(cand(1, 0b100, 3)); // off-path below level 0 for leaf 0
        assert!(q.select_rd(&shape, LeafLabel::new(0), 1).is_none());
        assert_eq!(q.len(), 1, "ineligible candidates stay queued");
        assert!(q.select_rd(&shape, LeafLabel::new(0), 0).is_some());
    }

    #[test]
    fn shadow_block_carries_identity() {
        let c = cand(7, 3, 4);
        let b = c.to_shadow_block();
        assert!(b.is_shadow());
        assert_eq!(b.addr, c.addr);
        assert_eq!(b.label, c.label);
        assert_eq!(b.data, c.data);
    }

    #[test]
    fn dri_counter_saturates_both_ways() {
        let mut c = DriCounter::new(2); // range 0..=3, starts at 2
        c.record(true);
        for _ in 0..10 {
            c.record(false); // real→dummy once, then dummy→dummy (no-ops)
        }
        assert!(c.value() <= c.max());
        // Alternate real/dummy to pump it up.
        for _ in 0..10 {
            c.record(true);
            c.record(false);
        }
        assert_eq!(c.value(), c.max());
        assert!(c.prefers_rd());
        // Streams of real requests drive it to zero.
        for _ in 0..20 {
            c.record(true);
        }
        assert_eq!(c.value(), 0);
        assert!(!c.prefers_rd());
    }

    #[test]
    fn dri_counter_ignores_dummy_to_real() {
        let mut c = DriCounter::new(3);
        let start = c.value();
        c.record(false);
        c.record(true); // dummy→real: unchanged
        assert_eq!(c.value(), start);
    }

    #[test]
    fn dynamic_partitioner_moves_toward_hd_on_short_dris() {
        let mut p = DynamicPartitioner::new(3, 24);
        let start = p.level();
        for _ in 0..30 {
            p.on_request(true);
        }
        assert!(p.level() > start, "real-request streams grow the HD region");
        assert_eq!(p.level(), 24, "clamped at the leaf level");
    }

    #[test]
    fn dynamic_partitioner_moves_toward_rd_on_long_dris() {
        let mut p = DynamicPartitioner::new(3, 24);
        for _ in 0..40 {
            p.on_request(true);
            p.on_request(false);
        }
        assert_eq!(p.level(), 0, "dummy-laced streams shrink the HD region");
    }

    #[test]
    fn scheme_resolution() {
        use SlotScheme::*;
        assert_eq!(scheme_for_slot(DupPolicy::Off, 0, 5), None);
        assert_eq!(scheme_for_slot(DupPolicy::RdOnly, 0, 5), Rd);
        assert_eq!(scheme_for_slot(DupPolicy::HdOnly, 0, 5), Hd);
        let p = DupPolicy::Static { partition_level: 7 };
        assert_eq!(scheme_for_slot(p, 7, 7), Rd);
        assert_eq!(scheme_for_slot(p, 7, 10), Rd);
        assert_eq!(scheme_for_slot(p, 7, 6), Hd);
        assert_eq!(scheme_for_slot(p, 7, 0), Hd);
    }
}
