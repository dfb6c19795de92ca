//! The on-chip stash: a small content-addressable memory that temporarily
//! holds data blocks between path reads and path writes.
//!
//! The stash follows the paper's hardware design (Sec. V-A):
//!
//! * every entry carries an *evicted bit* marking it **replaceable** — its
//!   slot counts as free for incoming blocks;
//! * shadow blocks are *always* replaceable the moment they are inserted
//!   (Rule-3), so duplication can never worsen stash occupancy;
//! * merge operations collapse multiple copies of the same address: the
//!   real copy wins over shadows, newer versions win over older ones.
//!
//! Besides the CAM index, the stash keeps a *slot-class index*: one bitmap
//! per entry class (live real, evicted real, shadow), updated at every slot
//! mutation. The eviction greedy walks only the live-real bits, victim
//! search takes the first set bit, and shadow recirculation walks only the
//! shadow bits — so none of them scans the full capacity `M`. The greedy
//! walks them once per eviction: [`Stash::plan_eviction`] groups the live
//! real blocks by how deep they fit, and [`Stash::evict_planned`] answers
//! each bucket slot from those groups.

use oram_util::FixedAddrMap;

use crate::tree::TreeShape;
use crate::types::{Block, BlockAddr, LeafLabel, Version};

/// One stash entry: a decrypted block plus the evicted/replaceable bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StashEntry {
    /// The block held in this slot.
    pub block: Block,
    /// When set, this slot counts as free: its data also lives in the ORAM
    /// tree (an evicted real block or any shadow block) and may be
    /// overwritten by incoming blocks at any time.
    pub replaceable: bool,
}

/// Outcome of inserting a block into the stash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored in a previously empty slot.
    Stored,
    /// Stored by overwriting a replaceable entry (whose address is given).
    ReplacedVictim(BlockAddr),
    /// Merged with an existing entry for the same address; the incoming
    /// copy was discarded as stale or redundant.
    MergedDiscardedIncoming,
    /// Merged with an existing entry for the same address; the incoming
    /// copy superseded the resident one (e.g. real over shadow).
    MergedUpgraded,
    /// The incoming block was a shadow and no slot was free; shadows are
    /// droppable, so it was silently discarded (never an overflow).
    ShadowDropped,
    /// A real block arrived with no free slot: stash overflow. The caller
    /// decides policy; the block was **not** stored.
    Overflow,
}

/// Running statistics for the stash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StashStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that hit a shadow (or evicted-real) entry specifically.
    pub replaceable_hits: u64,
    /// Real-block inserts that found no free slot.
    pub overflows: u64,
    /// Shadow inserts dropped for lack of space.
    pub shadows_dropped: u64,
    /// High-water mark of live (non-replaceable) entries.
    pub max_live: usize,
    /// High-water mark of occupied slots (live + replaceable).
    pub max_occupied: usize,
}

/// The stash itself.
///
/// ```
/// use oram_protocol::{Stash, Block, BlockAddr, LeafLabel};
/// let mut stash = Stash::new(8);
/// let blk = Block::real(BlockAddr::new(3), LeafLabel::new(0), 7, 1);
/// stash.insert(blk);
/// assert_eq!(stash.lookup(BlockAddr::new(3)).map(|e| e.block.data), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct Stash {
    capacity: usize,
    slots: Vec<Option<StashEntry>>,
    /// Slot-class index: `classes[c]` holds exactly the slots whose entry
    /// has class `c` (see [`SlotClass`]); empty slots are in none.
    classes: [SlotSet; 3],
    /// CAM index: program address → slot. A fixed-capacity
    /// open-addressed table, so probes are two cache lines at worst and
    /// the stash never allocates after construction.
    index: FixedAddrMap,
    free: Vec<usize>,
    /// Live (non-replaceable) entry count, maintained incrementally so
    /// the high-water bookkeeping is O(1) per insert instead of a scan.
    live_count: usize,
    /// The current eviction's greedy (see [`Stash::plan_eviction`]).
    plan: EvictionPlan,
    stats: StashStats,
}

impl Stash {
    /// Creates a stash with room for `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stash capacity must be positive");
        Stash {
            capacity,
            slots: vec![None; capacity],
            classes: std::array::from_fn(|_| SlotSet::new(capacity)),
            index: FixedAddrMap::with_capacity(capacity),
            free: (0..capacity).rev().collect(),
            live_count: 0,
            plan: EvictionPlan::new(capacity),
            stats: StashStats::default(),
        }
    }

    /// Total slot capacity `M`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied slots (live + replaceable).
    pub fn occupied(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// Number of live (non-replaceable) entries — the quantity that matters
    /// for stash-overflow analysis.
    pub fn live(&self) -> usize {
        debug_assert_eq!(
            self.live_count,
            self.slots.iter().flatten().filter(|e| !e.replaceable).count()
        );
        self.live_count
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StashStats {
        self.stats
    }

    /// Raw CAM probe by program address: returns the physical entry even
    /// when it is a freed (evicted-real) slot. Used by the merge logic;
    /// for request servicing use [`Stash::lookup`] / [`Stash::serving`].
    pub fn peek(&self, addr: BlockAddr) -> Option<&StashEntry> {
        self.index.get(addr.raw()).and_then(|i| self.slots[i as usize].as_ref())
    }

    /// The entry that would *serve* a request for `addr`, if any.
    ///
    /// Evicted real blocks are logically freed slots ("their corresponding
    /// positions in the stash become free slots", Sec. II-C): although
    /// their bits linger until overwritten, they do not answer lookups.
    /// Live real blocks always serve; shadow entries serve too — that is
    /// precisely how HD-Dup caches hot data on chip (Sec. IV-C2).
    pub fn serving(&self, addr: BlockAddr) -> Option<&StashEntry> {
        self.peek(addr)
            .filter(|e| !(e.replaceable && e.block.is_real()))
    }

    /// CAM lookup by program address, recording hit/miss statistics.
    /// Applies the [`Stash::serving`] visibility rule.
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<StashEntry> {
        match self.serving(addr).copied() {
            Some(e) => {
                self.stats.hits += 1;
                if e.replaceable {
                    self.stats.replaceable_hits += 1;
                }
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a block loaded from a path read, applying the merge rules.
    ///
    /// Shadow blocks are stored replaceable (Rule-3); real blocks are
    /// stored live. Dummies must be filtered out by the caller.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `block` is a dummy.
    pub fn insert(&mut self, block: Block) -> InsertOutcome {
        debug_assert!(!block.is_dummy(), "dummies never enter the stash");
        let incoming_replaceable = block.is_shadow();

        if let Some(slot) = self.index.get(block.addr.raw()) {
            return self.merge_at(slot as usize, block, incoming_replaceable);
        }

        if let Some(slot) = self.free.pop() {
            self.store(slot, block, incoming_replaceable);
            return InsertOutcome::Stored;
        }

        // No free slot: displace a replaceable victim. Incoming shadows
        // also qualify — replaceable slots are free slots (Rule-3), and a
        // freshly loaded shadow is the mechanism by which HD-Dup caches hot
        // data on chip.
        if let Some((slot, victim_addr)) = self.find_replaceable_victim() {
            self.evict_slot(slot);
            self.free.pop(); // the slot we just freed
            self.store(slot, block, incoming_replaceable);
            return InsertOutcome::ReplacedVictim(victim_addr);
        }

        if block.is_shadow() {
            self.stats.shadows_dropped += 1;
            InsertOutcome::ShadowDropped
        } else {
            self.stats.overflows += 1;
            InsertOutcome::Overflow
        }
    }

    /// Merge an incoming copy with the resident entry at `slot`.
    fn merge_at(&mut self, slot: usize, block: Block, incoming_replaceable: bool) -> InsertOutcome {
        let resident = self.slots[slot].expect("indexed slot must be occupied");
        debug_assert_eq!(resident.block.addr, block.addr);

        let upgrade = match block.version.cmp(&resident.block.version) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => {
                // Same version: the real copy wins over a shadow; otherwise
                // the resident stays (duplicate shadows merge into one,
                // duplicate reals are bit-identical).
                block.is_real() && resident.block.is_shadow()
            }
        };

        if upgrade {
            // A real copy arriving over a shadow keeps the data live; a
            // newer version always re-arms the entry as live if it is real.
            self.slots[slot] = Some(StashEntry { block, replaceable: incoming_replaceable });
            self.refile(slot, SlotClass::of(&resident));
            self.touch_high_water();
            InsertOutcome::MergedUpgraded
        } else {
            InsertOutcome::MergedDiscardedIncoming
        }
    }

    fn store(&mut self, slot: usize, block: Block, replaceable: bool) {
        debug_assert!(self.slots[slot].is_none());
        let entry = StashEntry { block, replaceable };
        self.file(slot, SlotClass::of(&entry));
        self.slots[slot] = Some(entry);
        self.index.insert(block.addr.raw(), slot as u32);
        self.touch_high_water();
    }

    /// Adds `slot` to `class` in the slot-class index. Live entries are
    /// exactly the live-real class (shadows are always replaceable), so
    /// the live count moves with it.
    fn file(&mut self, slot: usize, class: SlotClass) {
        self.classes[class as usize].insert(slot);
        if class == SlotClass::LiveReal {
            self.live_count += 1;
        }
    }

    /// Removes `slot` from `class` in the slot-class index.
    fn unfile(&mut self, slot: usize, class: SlotClass) {
        self.classes[class as usize].remove(slot);
        if class == SlotClass::LiveReal {
            self.live_count -= 1;
        }
    }

    /// Refiles the occupied `slot` after a mutation; `from` is its class
    /// before.
    fn refile(&mut self, slot: usize, from: SlotClass) {
        let to = SlotClass::of(self.entry(slot));
        if from != to {
            self.unfile(slot, from);
            self.file(slot, to);
        }
    }

    fn touch_high_water(&mut self) {
        let occ = self.occupied();
        if occ > self.stats.max_occupied {
            self.stats.max_occupied = occ;
        }
        if self.live_count > self.stats.max_live {
            self.stats.max_live = self.live_count;
        }
    }

    /// The slot an incoming block displaces when the stash is full: the
    /// lowest-index evicted-real slot, else the lowest-index shadow slot.
    ///
    /// Evicted-real entries go first: their data lives intact in the tree,
    /// while resident shadows double as HD-Dup's on-chip cache and the
    /// recirculation supply for future duplication, so shadows are
    /// victimized only when no other replaceable exists. O(M/64).
    fn find_replaceable_victim(&self) -> Option<(usize, BlockAddr)> {
        let slot = self.classes[SlotClass::EvictedReal as usize]
            .first()
            .or_else(|| self.classes[SlotClass::Shadow as usize].first())?;
        Some((slot, self.entry(slot).block.addr))
    }

    /// The entry in an occupied `slot`.
    fn entry(&self, slot: usize) -> &StashEntry {
        self.slots[slot].as_ref().expect("indexed slot must be occupied")
    }

    /// Frees `slot`, removing its index entry.
    fn evict_slot(&mut self, slot: usize) {
        if let Some(e) = self.slots[slot].take() {
            self.unfile(slot, SlotClass::of(&e));
            self.index.remove(e.block.addr.raw());
            self.free.push(slot);
        }
    }

    /// Removes the entry for `addr` entirely (used when a block is
    /// invalidated rather than evicted).
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Block> {
        let slot = self.index.get(addr.raw())? as usize;
        let e = self.slots[slot].take()?;
        self.unfile(slot, SlotClass::of(&e));
        self.index.remove(addr.raw());
        self.free.push(slot);
        Some(e.block)
    }

    /// Overwrites the payload of a resident entry (a CPU write hitting the
    /// stash). The entry is promoted to a live real block with the given
    /// version; if it was a shadow or an evicted-real copy, the tree copies
    /// become stale and will be discarded by the version check on load.
    ///
    /// Returns `false` if `addr` is not resident.
    pub fn write(&mut self, addr: BlockAddr, data: u64, version: Version) -> bool {
        let Some(slot) = self.index.get(addr.raw()) else {
            return false;
        };
        let Some(entry) = self.slots[slot as usize].as_mut() else {
            return false;
        };
        let from = SlotClass::of(entry);
        entry.block = Block::real(addr, entry.block.label, data, version);
        entry.replaceable = false;
        self.refile(slot as usize, from);
        self.touch_high_water();
        true
    }

    /// Forces the resident entry for `addr` live (non-replaceable). Used by
    /// the eviction read: blocks pulled off a path that is about to be
    /// rewritten must not be victimized before the write half re-places
    /// them. Returns `false` if `addr` is not resident.
    pub fn ensure_live(&mut self, addr: BlockAddr) -> bool {
        let Some(slot) = self.index.get(addr.raw()) else {
            return false;
        };
        let Some(entry) = self.slots[slot as usize].as_mut() else {
            return false;
        };
        if entry.block.is_real() {
            let from = SlotClass::of(entry);
            entry.replaceable = false;
            self.refile(slot as usize, from);
            self.touch_high_water();
        }
        true
    }

    /// Re-labels a resident entry (remap after an access) and promotes it to
    /// a live real block. Returns `false` if absent.
    pub fn relabel(&mut self, addr: BlockAddr, label: LeafLabel, version: Version) -> bool {
        let Some(slot) = self.index.get(addr.raw()) else {
            return false;
        };
        let Some(entry) = self.slots[slot as usize].as_mut() else {
            return false;
        };
        let from = SlotClass::of(entry);
        entry.block = Block::real(addr, label, entry.block.data, version.max(entry.block.version));
        entry.replaceable = false;
        self.refile(slot as usize, from);
        self.touch_high_water();
        true
    }

    /// Plans the greedy of one eviction write half to `eviction_leaf`:
    /// each live real block's common level with the eviction path is
    /// computed once, and the blocks are grouped by it, each group in
    /// ascending slot order. [`Stash::evict_planned`] then fills each
    /// bucket slot from the groups. The write half only ever turns live
    /// blocks into evicted ones, never the reverse, so the groups stay
    /// exact for the whole write half. O(live + M/64); no allocation.
    ///
    /// The plan stays valid while the stash changes only through
    /// [`Stash::evict_planned`]; any other mutation needs a new plan.
    pub fn plan_eviction(&mut self, shape: &TreeShape, eviction_leaf: LeafLabel) {
        let plan = &mut self.plan;
        plan.nonempty = 0;
        for slot in self.classes[SlotClass::LiveReal as usize].iter() {
            let entry = self.slots[slot].as_ref().expect("indexed slot must be occupied");
            let level = shape.common_level(eviction_leaf, entry.block.label) as usize;
            let slot = slot as u32;
            if plan.nonempty & (1 << level) == 0 {
                plan.nonempty |= 1 << level;
                plan.head[level] = slot;
            } else {
                plan.next[plan.tail[level] as usize] = slot;
            }
            plan.tail[level] = slot;
            plan.next[slot as usize] = NIL;
        }
    }

    /// Evicts the live real block best suited for the bucket at
    /// `slot_level` on the planned eviction path, marks it evicted and
    /// returns it; `None` when no live block's path passes through that
    /// bucket. The pick is the standard "as deep as possible" greedy of
    /// Path ORAM: the block whose path stays joined with the eviction path
    /// deepest, ties to the lowest slot index — the deepest non-empty
    /// group, found through its bitmask, and that group's first block.
    pub fn evict_planned(&mut self, slot_level: u32) -> Option<Block> {
        let plan = &mut self.plan;
        let level = 63u32.checked_sub(plan.nonempty.leading_zeros())?;
        if level < slot_level {
            return None;
        }
        let slot = plan.head[level as usize];
        match plan.next[slot as usize] {
            NIL => plan.nonempty &= !(1 << level),
            next => plan.head[level as usize] = next,
        }
        debug_assert!(
            self.classes[SlotClass::LiveReal as usize].contains(slot as usize),
            "the stash changed since the eviction was planned"
        );
        Some(self.mark_slot_evicted(slot as usize))
    }

    /// Marks `addr` as evicted (replaceable) after it has been written back
    /// to the tree, returning a copy of the block that was written.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not resident.
    pub fn mark_evicted(&mut self, addr: BlockAddr) -> Block {
        let slot = self.index.get(addr.raw()).expect("evicted block resident") as usize;
        self.mark_slot_evicted(slot)
    }

    fn mark_slot_evicted(&mut self, slot: usize) -> Block {
        let entry = self.slots[slot].as_mut().expect("selected entry present");
        let from = SlotClass::of(entry);
        entry.replaceable = true;
        let block = entry.block;
        self.refile(slot, from);
        block
    }

    /// Iterates over resident shadow entries (duplication candidates whose
    /// real copy lives in the tree), in slot order. Walks only the shadow
    /// slots.
    pub fn shadow_entries(&self) -> impl Iterator<Item = &StashEntry> {
        self.classes[SlotClass::Shadow as usize].iter().map(|slot| self.entry(slot))
    }

    /// Iterates over all occupied entries.
    pub fn entries(&self) -> impl Iterator<Item = &StashEntry> {
        self.slots.iter().flatten()
    }

    /// Checks the derived state against `slots`: the slot-class index, the
    /// CAM index, the free list and the live count. O(M); test and
    /// diagnostic use only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut occupied = 0;
        let mut live = 0;
        for (slot, s) in self.slots.iter().enumerate() {
            let class = s.as_ref().map(SlotClass::of);
            for c in SlotClass::ALL {
                if self.classes[c as usize].contains(slot) != (class == Some(c)) {
                    return Err(format!("slot {slot} ({s:?}) misfiled in class index {c:?}"));
                }
            }
            let Some(e) = s else { continue };
            occupied += 1;
            if !e.replaceable {
                live += 1;
            }
            if e.block.is_shadow() && !e.replaceable {
                return Err(format!("slot {slot} holds a live shadow {:?}", e.block));
            }
            if self.index.get(e.block.addr.raw()) != Some(slot as u32) {
                return Err(format!("CAM index misses {} at slot {slot}", e.block.addr));
            }
        }
        if self.index.len() != occupied {
            return Err(format!("CAM index has {} keys for {occupied} entries", self.index.len()));
        }
        if self.free.len() + occupied != self.capacity
            || self.free.iter().any(|&f| self.slots[f].is_some())
        {
            return Err(format!("free list {:?} disagrees with {occupied} occupied", self.free));
        }
        if self.live_count != live {
            return Err(format!("live count {} but {live} live entries", self.live_count));
        }
        Ok(())
    }
}

/// The class of an occupied stash slot, as tracked by the slot-class index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotClass {
    /// A real block not yet written back: an eviction candidate.
    LiveReal,
    /// A real block whose data also lives in the tree: a first-choice victim.
    EvictedReal,
    /// A shadow copy (always replaceable): a fallback victim and a
    /// recirculation candidate.
    Shadow,
}

impl SlotClass {
    const ALL: [SlotClass; 3] = [SlotClass::LiveReal, SlotClass::EvictedReal, SlotClass::Shadow];

    fn of(e: &StashEntry) -> SlotClass {
        if e.block.is_shadow() {
            SlotClass::Shadow
        } else if e.replaceable {
            SlotClass::EvictedReal
        } else {
            SlotClass::LiveReal
        }
    }
}

/// End-of-group link in an [`EvictionPlan`].
const NIL: u32 = u32::MAX;

/// One eviction's greedy: the live real slots grouped by their common
/// level with the eviction leaf. Group `l` is a list in ascending slot
/// order threaded through `next`, from `head[l]` to `tail[l]`; bit `l` of
/// `nonempty` says whether it has any slot left. Common levels are below
/// 48 ([`TreeShape::new`]), so one `u64` covers them.
#[derive(Debug, Clone)]
struct EvictionPlan {
    /// `next[slot]`: the following slot of `slot`'s group, or [`NIL`].
    next: Vec<u32>,
    head: [u32; 64],
    tail: [u32; 64],
    nonempty: u64,
}

impl EvictionPlan {
    fn new(capacity: usize) -> Self {
        EvictionPlan { next: vec![NIL; capacity], head: [NIL; 64], tail: [NIL; 64], nonempty: 0 }
    }
}

/// A fixed-size bitmap over slot indices; iteration is in ascending order.
#[derive(Debug, Clone)]
struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    fn new(capacity: usize) -> Self {
        SlotSet { words: vec![0; capacity.div_ceil(64)] }
    }

    fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    fn contains(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// The lowest slot in the set.
    fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(addr: u64, label: u64, data: u64, ver: u64) -> Block {
        Block::real(BlockAddr::new(addr), LeafLabel::new(label), data, ver)
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = Stash::new(4);
        assert_eq!(s.insert(real(1, 0, 10, 1)), InsertOutcome::Stored);
        assert_eq!(s.lookup(BlockAddr::new(1)).unwrap().block.data, 10);
        assert!(s.lookup(BlockAddr::new(2)).is_none());
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn shadow_is_replaceable_on_insert() {
        let mut s = Stash::new(4);
        let sh = real(1, 0, 10, 1).to_shadow();
        s.insert(sh);
        let e = s.peek(BlockAddr::new(1)).unwrap();
        assert!(e.replaceable);
        assert!(e.block.is_shadow());
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn real_overwrites_shadow_on_merge() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 10, 1).to_shadow());
        assert_eq!(s.insert(real(1, 0, 10, 1)), InsertOutcome::MergedUpgraded);
        let e = s.peek(BlockAddr::new(1)).unwrap();
        assert!(e.block.is_real());
        assert!(!e.replaceable);
    }

    #[test]
    fn stale_copy_is_discarded_on_merge() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 20, 5));
        assert_eq!(
            s.insert(real(1, 0, 10, 3)),
            InsertOutcome::MergedDiscardedIncoming
        );
        assert_eq!(s.peek(BlockAddr::new(1)).unwrap().block.data, 20);
    }

    #[test]
    fn newer_version_supersedes() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 10, 1).to_shadow());
        assert_eq!(s.insert(real(1, 0, 30, 2)), InsertOutcome::MergedUpgraded);
        assert_eq!(s.peek(BlockAddr::new(1)).unwrap().block.data, 30);
    }

    #[test]
    fn duplicate_shadows_merge_to_one() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 10, 1).to_shadow());
        assert_eq!(
            s.insert(real(1, 0, 10, 1).to_shadow()),
            InsertOutcome::MergedDiscardedIncoming
        );
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn real_block_displaces_replaceable_victim() {
        let mut s = Stash::new(2);
        s.insert(real(1, 0, 10, 1).to_shadow());
        s.insert(real(2, 0, 20, 1));
        // Stash full: 1 shadow (replaceable) + 1 live.
        let out = s.insert(real(3, 0, 30, 1));
        assert_eq!(out, InsertOutcome::ReplacedVictim(BlockAddr::new(1)));
        assert!(s.peek(BlockAddr::new(1)).is_none());
        assert!(s.peek(BlockAddr::new(3)).is_some());
    }

    #[test]
    fn incoming_shadow_dropped_when_full() {
        let mut s = Stash::new(2);
        s.insert(real(1, 0, 10, 1));
        s.insert(real(2, 0, 20, 1));
        let out = s.insert(real(3, 0, 30, 1).to_shadow());
        assert_eq!(out, InsertOutcome::ShadowDropped);
        assert_eq!(s.stats().shadows_dropped, 1);
        assert_eq!(s.stats().overflows, 0);
    }

    #[test]
    fn real_overflow_when_full_of_live_blocks() {
        let mut s = Stash::new(2);
        s.insert(real(1, 0, 10, 1));
        s.insert(real(2, 0, 20, 1));
        assert_eq!(s.insert(real(3, 0, 30, 1)), InsertOutcome::Overflow);
        assert_eq!(s.stats().overflows, 1);
    }

    #[test]
    fn write_promotes_shadow_to_live_real() {
        let mut s = Stash::new(4);
        s.insert(real(1, 3, 10, 1).to_shadow());
        assert!(s.write(BlockAddr::new(1), 77, 2));
        let e = s.peek(BlockAddr::new(1)).unwrap();
        assert!(e.block.is_real());
        assert!(!e.replaceable);
        assert_eq!(e.block.data, 77);
        assert_eq!(e.block.version, 2);
        assert_eq!(e.block.label.raw(), 3, "label preserved on promote");
    }

    #[test]
    fn eviction_selection_prefers_deepest_fit() {
        let shape = TreeShape::new(3, 2);
        let mut s = Stash::new(8);
        // Eviction to leaf 0 (path 0b000).
        s.insert(real(1, 0b100, 0, 1)); // shares only root
        s.insert(real(2, 0b001, 0, 1)); // shares levels 0..=2
        s.insert(real(3, 0b000, 0, 1)); // shares full path
        let leaf = LeafLabel::new(0);
        // For the leaf-level slot only blk 3 qualifies.
        assert_eq!(
            s.select_for_eviction(&shape, leaf, 3),
            Some(BlockAddr::new(3))
        );
        // At level 1 the deepest-fitting candidate is still blk 3.
        assert_eq!(
            s.select_for_eviction(&shape, leaf, 1),
            Some(BlockAddr::new(3))
        );
        // After evicting blk 3, blk 2 becomes the best at level ≤ 2.
        s.mark_evicted(BlockAddr::new(3));
        assert_eq!(
            s.select_for_eviction(&shape, leaf, 2),
            Some(BlockAddr::new(2))
        );
        // The plan fills a path write leaf to root the same way.
        s.plan_eviction(&shape, leaf);
        let mut planned = |level| s.evict_planned(level).map(|b| b.addr.raw());
        assert_eq!(planned(3), None);
        assert_eq!(planned(2), Some(2));
        assert_eq!(planned(1), None, "blk 1 fits only the root");
        assert_eq!(planned(0), Some(1));
        assert_eq!(planned(0), None);
    }

    /// The once-per-eviction plan picks exactly what the per-slot greedy
    /// picks, slot after slot, as each pick is marked evicted: over random
    /// stash contents, eviction leaves, depths 1–31 and bucket sizes, with
    /// levels skipped.
    #[test]
    fn eviction_plan_matches_per_slot_greedy() {
        let mut rng = oram_util::Rng64::seed_from_u64(0xE71C);
        for trial in 0..600 {
            let levels = 1 + rng.below(31) as u32;
            let z = 1 + rng.below(6) as usize;
            let shape = TreeShape::new(levels, z);
            let capacity = 1 + rng.below(130) as usize;
            let mut s = Stash::new(capacity);
            let leaf = LeafLabel::new(rng.below(shape.leaf_count()));
            for i in 0..rng.below(2 * capacity as u64 + 1) {
                // Labels near the eviction leaf fit deep; others shallow.
                let spread = 1u64 << rng.below(u64::from(levels) + 1);
                let label = LeafLabel::new(leaf.raw() ^ rng.below(spread));
                let mut blk = Block::real(BlockAddr::new(rng.below(4 * capacity as u64)), label, i, 1);
                if rng.gen_bool(0.2) {
                    blk = blk.to_shadow();
                }
                s.insert(blk);
                if rng.gen_bool(0.2) && s.peek(blk.addr).is_some() {
                    s.mark_evicted(blk.addr);
                }
            }
            s.plan_eviction(&shape, leaf);
            for level in (0..=levels).rev() {
                if rng.gen_bool(0.15) {
                    continue;
                }
                for slot in 0..z {
                    let want = s.select_for_eviction(&shape, leaf, level);
                    let got = s.evict_planned(level);
                    assert_eq!(
                        got.map(|b| b.addr),
                        want,
                        "trial {trial}: L={levels} leaf {leaf} level {level} slot {slot}"
                    );
                    if let Some(b) = got {
                        assert!(s.peek(b.addr).is_some_and(|e| e.replaceable), "pick marked evicted");
                    }
                }
            }
            s.check_invariants().expect("derived state matches slots");
        }
    }

    #[test]
    fn mark_evicted_keeps_entry_replaceable() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 10, 1));
        let b = s.mark_evicted(BlockAddr::new(1));
        assert_eq!(b.data, 10);
        assert!(s.peek(BlockAddr::new(1)).unwrap().replaceable);
        assert_eq!(s.live(), 0);
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn high_water_marks_track() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 0, 1));
        s.insert(real(2, 0, 0, 1));
        s.mark_evicted(BlockAddr::new(2));
        s.insert(real(3, 0, 0, 1).to_shadow());
        assert_eq!(s.stats().max_live, 2);
        assert_eq!(s.stats().max_occupied, 3);
    }

    /// The linear scans the slot-class index replaced, and the per-slot
    /// greedy the eviction plan replaced, kept as the references the
    /// indexed and planned versions must agree with.
    impl Stash {
        /// The live real block best suited for the bucket at `slot_level`
        /// on the path to `eviction_leaf`: deepest common level with
        /// `eviction_leaf`, then the lowest slot index. Walks the live-real
        /// slots once per call, scoring each as `(common level, !slot)`
        /// packed into one integer (zero when it does not fit).
        fn select_for_eviction(
            &self,
            shape: &TreeShape,
            eviction_leaf: LeafLabel,
            slot_level: u32,
        ) -> Option<BlockAddr> {
            let mut best = 0u64;
            for slot in self.classes[SlotClass::LiveReal as usize].iter() {
                let cl = shape.common_level(eviction_leaf, self.entry(slot).block.label);
                let score = (u64::from(cl) << 32) | u64::from(!(slot as u32));
                best = best.max(if cl >= slot_level { score } else { 0 });
            }
            (best != 0).then(|| self.entry(!(best as u32) as usize).block.addr)
        }

        fn select_for_eviction_linear(
            &self,
            shape: &TreeShape,
            eviction_leaf: LeafLabel,
            slot_level: u32,
        ) -> Option<BlockAddr> {
            let mut best: Option<(u32, BlockAddr)> = None;
            for entry in self.slots.iter().flatten() {
                if entry.replaceable || !entry.block.is_real() {
                    continue;
                }
                let cl = shape.common_level(eviction_leaf, entry.block.label);
                if cl >= slot_level {
                    match best {
                        Some((b, _)) if b >= cl => {}
                        _ => best = Some((cl, entry.block.addr)),
                    }
                }
            }
            best.map(|(_, a)| a)
        }

        fn find_replaceable_victim_linear(&self) -> Option<(usize, BlockAddr)> {
            let mut shadow_victim = None;
            for (i, s) in self.slots.iter().enumerate() {
                if let Some(e) = s {
                    if e.replaceable {
                        if e.block.is_shadow() {
                            if shadow_victim.is_none() {
                                shadow_victim = Some((i, e.block.addr));
                            }
                        } else {
                            return Some((i, e.block.addr));
                        }
                    }
                }
            }
            shadow_victim
        }

        fn shadow_entries_linear(&self) -> impl Iterator<Item = &StashEntry> {
            self.slots.iter().flatten().filter(|e| e.block.is_shadow())
        }
    }

    /// Asserts that every indexed query answers as its linear reference.
    fn assert_matches_reference(s: &Stash, shape: &TreeShape, rng: &mut oram_util::Rng64) {
        s.check_invariants().expect("derived state matches slots");
        assert_eq!(s.find_replaceable_victim(), s.find_replaceable_victim_linear());
        assert!(s.shadow_entries().eq(s.shadow_entries_linear()));
        for _ in 0..2 {
            let leaf = LeafLabel::new(rng.below(shape.leaf_count()));
            for level in 0..=shape.levels() + 1 {
                assert_eq!(
                    s.select_for_eviction(shape, leaf, level),
                    s.select_for_eviction_linear(shape, leaf, level),
                    "leaf {leaf} level {level}"
                );
            }
        }
    }

    #[test]
    fn indexed_queries_match_linear_reference_under_random_ops() {
        use oram_util::Rng64;
        let shape = TreeShape::new(6, 4);
        for (seed, capacity) in [(1u64, 1usize), (2, 17), (3, 63), (4, 64), (5, 65), (6, 130)] {
            let mut rng = Rng64::seed_from_u64(seed);
            let mut s = Stash::new(capacity);
            let domain = (capacity as u64) * 2 + 4;
            let mut version = 1;
            for step in 0..4_000 {
                let addr = BlockAddr::new(rng.below(domain));
                let label = LeafLabel::new(rng.below(shape.leaf_count()));
                match rng.below(10) {
                    0..=3 => {
                        // Insert: a fresh address into a full stash must
                        // displace exactly the reference victim.
                        let mut blk = Block::real(addr, label, step, rng.below(version + 1));
                        if rng.gen_bool(0.5) {
                            blk = blk.to_shadow();
                        }
                        let displaces = s.peek(addr).is_none() && s.occupied() == capacity;
                        let want = s.find_replaceable_victim_linear();
                        let out = s.insert(blk);
                        match (displaces, want) {
                            (true, Some((_, victim))) => {
                                assert_eq!(out, InsertOutcome::ReplacedVictim(victim))
                            }
                            (true, None) => assert!(matches!(
                                out,
                                InsertOutcome::Overflow | InsertOutcome::ShadowDropped
                            )),
                            (false, _) => {
                                assert!(!matches!(out, InsertOutcome::ReplacedVictim(_)))
                            }
                        }
                    }
                    4 => {
                        version += 1;
                        s.write(addr, step, version);
                    }
                    5 => {
                        version += 1;
                        s.relabel(addr, label, version);
                    }
                    6 => {
                        s.ensure_live(addr);
                    }
                    7 => {
                        s.remove(addr);
                    }
                    _ => {
                        // Evict like the controller: the greedy's pick, or
                        // any resident entry (shadows included).
                        let level = rng.below(u64::from(shape.levels()) + 1) as u32;
                        let pick = s.select_for_eviction(&shape, label, level).or_else(|| {
                            let n = s.occupied() as u64;
                            (n > 0).then(|| {
                                s.entries().nth(rng.below(n) as usize).unwrap().block.addr
                            })
                        });
                        if let Some(a) = pick {
                            s.mark_evicted(a);
                        }
                    }
                }
                assert_matches_reference(&s, &shape, &mut rng);
            }
        }
    }
}
