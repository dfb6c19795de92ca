//! Test-only reference scheduler: the original `VecDeque` FR-FCFS
//! channel with nested `[rank][bank]` bank storage, kept so the compact
//! [`Channel`] can be checked against it transaction by transaction.
//! Its timing code is the pre-compaction `Channel` unchanged.

use std::collections::VecDeque;

use crate::bank::{Bank, Command, RowState};
use crate::config::DramConfig;
use crate::controller::{
    Channel, ChannelStats, ChannelUtilization, Completion, Transaction, TxBreakdown,
    QUEUE_DEPTH_BUCKETS,
};
use crate::energy::EnergyCounters;

/// The reference channel: same public surface as [`Channel`].
#[derive(Debug, Clone)]
pub(crate) struct RefChannel {
    cfg: DramConfig,
    banks: Vec<Vec<Bank>>,
    queue: VecDeque<Transaction>,
    bus_free: i64,
    recent_activates: Vec<VecDeque<i64>>,
    next_refresh: Vec<i64>,
    stats: ChannelStats,
    energy: EnergyCounters,
    batch_crit: Option<TxBreakdown>,
    busy_cycles: u64,
    queue_depth_hist: [u64; QUEUE_DEPTH_BUCKETS],
    bank_touches: Vec<u64>,
    bank_busy: Vec<u64>,
}

impl RefChannel {
    pub(crate) fn new(cfg: DramConfig) -> Self {
        RefChannel {
            banks: vec![vec![Bank::new(); cfg.banks]; cfg.ranks],
            queue: VecDeque::new(),
            bus_free: 0,
            recent_activates: vec![VecDeque::new(); cfg.ranks],
            next_refresh: vec![cfg.trefi as i64; cfg.ranks],
            stats: ChannelStats::default(),
            energy: EnergyCounters::default(),
            batch_crit: None,
            busy_cycles: 0,
            queue_depth_hist: [0; QUEUE_DEPTH_BUCKETS],
            bank_touches: vec![0; cfg.ranks * cfg.banks],
            bank_busy: vec![0; cfg.ranks * cfg.banks],
            cfg,
        }
    }

    pub(crate) fn begin_batch(&mut self) {
        self.batch_crit = None;
    }

    pub(crate) fn batch_critical(&self) -> Option<TxBreakdown> {
        self.batch_crit
    }

    pub(crate) fn utilization(&self) -> ChannelUtilization {
        ChannelUtilization {
            stats: self.stats,
            busy_cycles: self.busy_cycles,
            queue_depth_hist: self.queue_depth_hist.to_vec(),
            bank_touches: self.bank_touches.clone(),
            bank_busy: self.bank_busy.clone(),
        }
    }

    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn stats(&self) -> ChannelStats {
        self.stats
    }

    pub(crate) fn energy(&self) -> EnergyCounters {
        self.energy
    }

    pub(crate) fn submit(&mut self, t: Transaction) {
        self.queue_depth_hist[self.queue.len().min(QUEUE_DEPTH_BUCKETS - 1)] += 1;
        self.queue.push_back(t);
    }

    pub(crate) fn drain_with(&mut self, now: i64, occupy_bus: bool) -> Vec<Completion> {
        let mut done = Vec::with_capacity(self.queue.len());
        self.drain_unordered(now, occupy_bus, |c| done.push(c));
        done.sort_by_key(|c| c.finish);
        done
    }

    pub(crate) fn drain_unordered(
        &mut self,
        now: i64,
        occupy_bus: bool,
        mut sink: impl FnMut(Completion),
    ) {
        while !self.queue.is_empty() {
            let idx = self.pick_fr_fcfs();
            let t = self.queue.remove(idx).expect("index in range");
            let finish = self.service_one(&t, now, occupy_bus);
            sink(Completion { id: t.id, finish });
        }
    }

    fn pick_fr_fcfs(&self) -> usize {
        for (i, t) in self.queue.iter().enumerate() {
            let bank = &self.banks[t.loc.rank][t.loc.bank];
            if bank.is_open(t.loc.row) {
                return i;
            }
        }
        0
    }

    fn service_one(&mut self, t: &Transaction, now: i64, occupy_bus: bool) -> i64 {
        let cfg = self.cfg;
        let base = now.max(t.arrival);
        self.maybe_refresh(t.loc.rank, base);

        let mut row_start = base;
        let mut row_end = base;
        let bank_state = self.banks[t.loc.rank][t.loc.bank].state();
        match bank_state {
            RowState::Open(r) if r == t.loc.row => {
                self.stats.row_hits += 1;
            }
            RowState::Open(_) => {
                self.stats.row_conflicts += 1;
                let at = self.banks[t.loc.rank][t.loc.bank]
                    .earliest(Command::Precharge, &cfg)
                    .max(base);
                self.banks[t.loc.rank][t.loc.bank].issue(Command::Precharge, at, 0, &cfg);
                self.stats.precharges += 1;
                self.energy.precharges += 1;
                self.activate(t, base);
                row_start = at;
                row_end = self.banks[t.loc.rank][t.loc.bank].row_ready(&cfg);
            }
            RowState::Idle => {
                self.stats.row_misses += 1;
                let act_at = self.activate(t, base);
                row_start = act_at;
                row_end = self.banks[t.loc.rank][t.loc.bank].row_ready(&cfg);
            }
        }

        let cmd = if t.is_write { Command::Write } else { Command::Read };
        let bank_ready = self.banks[t.loc.rank][t.loc.bank].earliest(cmd, &cfg).max(base);
        let latency = if t.is_write { cfg.cwl } else { cfg.cl } as i64;
        let use_bus = occupy_bus || t.is_write;
        let issue = if use_bus {
            bank_ready.max(self.bus_free - latency)
        } else {
            bank_ready
        };
        self.banks[t.loc.rank][t.loc.bank].issue(cmd, issue, t.loc.row, &cfg);
        let data_start = issue + latency;
        let finish = data_start + cfg.burst_cycles() as i64;
        if use_bus {
            self.bus_free = finish;
            self.busy_cycles += cfg.burst_cycles();
        }

        let row_d = row_end.min(issue).saturating_sub(row_start.max(base)).max(0) as u64;
        let queue_d = (issue - base) as u64 - row_d;
        let transfer_d = (finish - issue) as u64;
        let bd = TxBreakdown { queue: queue_d, row: row_d, transfer: transfer_d, finish };
        if self.batch_crit.is_none_or(|c| finish > c.finish) {
            self.batch_crit = Some(bd);
        }
        let flat = t.loc.rank * cfg.banks + t.loc.bank;
        self.bank_touches[flat] += 1;
        self.bank_busy[flat] += row_d + transfer_d;

        if t.is_write {
            self.stats.writes += 1;
            self.energy.write_bursts += 1;
        } else {
            self.stats.reads += 1;
            self.energy.read_bursts += 1;
        }
        self.energy.busy_until = self.energy.busy_until.max(finish);
        finish
    }

    fn activate(&mut self, t: &Transaction, base: i64) -> i64 {
        let (loc, cfg) = (t.loc, self.cfg);
        let mut at = self.banks[loc.rank][loc.bank]
            .earliest(Command::Activate, &cfg)
            .max(base);
        {
            let recent = &mut self.recent_activates[loc.rank];
            if let Some(&last) = recent.back() {
                at = at.max(last + cfg.trrd as i64);
            }
            if recent.len() >= 4 {
                let fourth_last = recent[recent.len() - 4];
                at = at.max(fourth_last + cfg.tfaw as i64);
            }
        }
        self.banks[loc.rank][loc.bank].issue(Command::Activate, at, loc.row, &cfg);
        let recent = &mut self.recent_activates[loc.rank];
        recent.push_back(at);
        if recent.len() > 8 {
            recent.pop_front();
        }
        self.stats.activates += 1;
        self.energy.activates += 1;
        at
    }

    fn maybe_refresh(&mut self, rank: usize, now: i64) {
        if self.cfg.trefi == 0 {
            return;
        }
        while self.next_refresh[rank] <= now {
            let deadline = self.next_refresh[rank];
            for b in 0..self.cfg.banks {
                if self.banks[rank][b].state() != RowState::Idle {
                    let at = self.banks[rank][b]
                        .earliest(Command::Precharge, &self.cfg)
                        .max(deadline);
                    self.banks[rank][b].issue(Command::Precharge, at, 0, &self.cfg);
                    self.stats.precharges += 1;
                    self.energy.precharges += 1;
                }
            }
            let resume = deadline + self.cfg.trfc as i64;
            for b in 0..self.cfg.banks {
                self.banks[rank][b].stall_until(resume, &self.cfg);
            }
            self.stats.refreshes += 1;
            self.energy.refreshes += 1;
            self.next_refresh[rank] += self.cfg.trefi as i64;
        }
    }
}

/// Randomized differential test: the compact [`Channel`] and the
/// reference agree on every completion and every counter.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{AddressMapping, Interleave, Location};
    use oram_util::Rng64;

    /// Asserts every observable of the two channels is equal.
    fn assert_same_state(fast: &Channel, slow: &RefChannel, ctx: &str) {
        assert_eq!(fast.pending(), slow.pending(), "{ctx}: pending");
        assert_eq!(fast.stats(), slow.stats(), "{ctx}: stats");
        assert_eq!(fast.energy(), slow.energy(), "{ctx}: energy");
        assert_eq!(fast.utilization(), slow.utilization(), "{ctx}: utilization");
        assert_eq!(fast.batch_critical(), slow.batch_critical(), "{ctx}: batch_critical");
    }

    /// Draws a location: mostly rows near the previous one (same-row
    /// runs), sometimes another row of the same bank (conflicts),
    /// sometimes anywhere.
    fn draw_location(rng: &mut Rng64, cfg: &DramConfig, prev: Location) -> Location {
        let roll = rng.below(10);
        let bursts = cfg.bursts_per_row() as u64;
        let column = rng.below(bursts) as usize;
        match roll {
            0..=4 => Location { column, ..prev },
            5..=6 => Location { row: rng.below(8), column, ..prev },
            _ => Location {
                channel: 0,
                rank: rng.below(cfg.ranks as u64) as usize,
                bank: rng.below(cfg.banks as u64) as usize,
                row: rng.below(8),
                column,
            },
        }
    }

    fn run_differential(seed: u64, cfg: DramConfig) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut fast = Channel::new(cfg);
        let mut slow = RefChannel::new(cfg);
        let mut now = 0i64;
        let mut next_id = 0u64;
        let mut loc = AddressMapping::new(&cfg, Interleave::RowRankBankColChan).decode(0);
        for round in 0..300 {
            let ctx = format!("seed={seed:#x} round={round} trefi={}", cfg.trefi);
            let occupy_bus = rng.below(4) != 0;
            fast.begin_batch();
            slow.begin_batch();
            // Several submits (possibly at later arrivals) before one drain.
            for _ in 0..rng.below(4) + 1 {
                let arrival = now + rng.below(40) as i64;
                for _ in 0..rng.below(40) {
                    loc = draw_location(&mut rng, &cfg, loc);
                    let t = Transaction {
                        id: next_id,
                        loc,
                        is_write: rng.below(3) == 0,
                        arrival,
                    };
                    next_id += 1;
                    fast.submit(t);
                    slow.submit(t);
                }
            }
            assert_same_state(&fast, &slow, &ctx);
            let (got, want) = if rng.below(2) == 0 {
                (fast.drain_with(now, occupy_bus), slow.drain_with(now, occupy_bus))
            } else {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                fast.drain_unordered(now, occupy_bus, |c| got.push(c));
                slow.drain_unordered(now, occupy_bus, |c| want.push(c));
                (got, want)
            };
            assert_eq!(got, want, "{ctx}: completions");
            assert_same_state(&fast, &slow, &ctx);
            // The next batch sometimes overlaps the last, sometimes idles
            // across refresh deadlines.
            let last = got.iter().map(|c| c.finish).max().unwrap_or(now);
            now = match rng.below(3) {
                0 => now + rng.below(50) as i64,
                1 => last,
                _ => last + rng.below(20_000) as i64,
            };
        }
    }

    #[test]
    fn compact_channel_matches_reference_scheduler() {
        let mut cfg = DramConfig::ddr3_1333();
        for seed in [1u64, 2, 3, 0xFACADE] {
            cfg.trefi = 0;
            run_differential(seed, cfg);
            cfg.trefi = DramConfig::ddr3_1333().trefi;
            run_differential(seed, cfg);
            // Short refresh intervals: refresh lands inside batches.
            cfg.trefi = 300;
            cfg.trfc = 40;
            run_differential(seed, cfg);
            cfg.trfc = DramConfig::ddr3_1333().trfc;
        }
    }

    #[test]
    fn compact_channel_matches_reference_with_one_rank_and_bank() {
        let cfg = DramConfig { ranks: 1, banks: 1, ..DramConfig::ddr3_1333() };
        run_differential(0xB0B, cfg);
    }

    /// Submits `txs` to both channels in order, drains both, and asserts
    /// that they agree on every completion (in service order) and every
    /// counter. Returns the last finish.
    fn drain_agrees(
        fast: &mut Channel,
        slow: &mut RefChannel,
        txs: &[Transaction],
        now: i64,
        occupy_bus: bool,
        ctx: &str,
    ) -> i64 {
        fast.begin_batch();
        slow.begin_batch();
        for &t in txs {
            fast.submit(t);
            slow.submit(t);
        }
        assert_same_state(fast, slow, ctx);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        fast.drain_unordered(now, occupy_bus, |c| got.push(c));
        slow.drain_unordered(now, occupy_bus, |c| want.push(c));
        assert_eq!(got, want, "{ctx}: completions");
        assert_same_state(fast, slow, ctx);
        got.iter().map(|c| c.finish).max().unwrap_or(now)
    }

    /// A same-row run: `len` transactions on one bank and row, in one
    /// direction, arriving together, columns ascending.
    fn run_of(
        first_id: u64,
        loc: Location,
        is_write: bool,
        arrival: i64,
        len: u64,
    ) -> Vec<Transaction> {
        (0..len)
            .map(|i| Transaction {
                id: first_id + i,
                loc: Location { column: (loc.column + i as usize) % 128, ..loc },
                is_write,
                arrival,
            })
            .collect()
    }

    /// Run-shaped batches as an ORAM path produces them: each submit is a
    /// few long same-row runs (reads, writes or both), over few rows so
    /// runs also meet open rows and conflicts left by earlier ones.
    fn run_differential_runs(seed: u64, cfg: DramConfig, occupy_bus: Option<bool>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut fast = Channel::new(cfg);
        let mut slow = RefChannel::new(cfg);
        let (mut now, mut next_id) = (0i64, 0u64);
        let mut txs = Vec::new();
        for round in 0..200 {
            let ctx = format!("runs seed={seed:#x} round={round} trefi={}", cfg.trefi);
            let occupy_bus = occupy_bus.unwrap_or_else(|| rng.below(2) == 0);
            let direction = rng.below(3); // all reads, all writes, mixed
            txs.clear();
            for _ in 0..rng.below(3) + 1 {
                let arrival = now + rng.below(3) as i64 * rng.below(400) as i64;
                for _ in 0..rng.below(6) + 1 {
                    let loc = Location {
                        channel: 0,
                        rank: rng.below(cfg.ranks as u64) as usize,
                        bank: rng.below(cfg.banks.min(2) as u64) as usize,
                        row: rng.below(3),
                        column: rng.below(128) as usize,
                    };
                    let is_write = match direction {
                        0 => false,
                        1 => true,
                        _ => rng.below(2) == 0,
                    };
                    let len = 1 + rng.below(64);
                    txs.extend(run_of(next_id, loc, is_write, arrival, len));
                    next_id += len;
                }
            }
            let last = drain_agrees(&mut fast, &mut slow, &txs, now, occupy_bus, &ctx);
            now = match rng.below(3) {
                0 => now + rng.below(50) as i64,
                1 => last,
                _ => last + rng.below(20_000) as i64,
            };
        }
    }

    #[test]
    fn same_row_runs_match_reference_scheduler() {
        let mut cfg = DramConfig::ddr3_1333();
        for seed in [11u64, 12, 0x5A_4E] {
            for occupy_bus in [None, Some(false), Some(true)] {
                cfg.trefi = 0;
                run_differential_runs(seed, cfg, occupy_bus);
                cfg.trefi = DramConfig::ddr3_1333().trefi;
                run_differential_runs(seed, cfg, occupy_bus);
                cfg.trefi = 300;
                cfg.trfc = 40;
                run_differential_runs(seed, cfg, occupy_bus);
                cfg.trfc = DramConfig::ddr3_1333().trfc;
            }
        }
    }

    /// Same-row transactions of two submits with different arrivals form
    /// two runs: the later one waits for its own arrival, and a refresh
    /// deadline between the arrivals fires before it.
    #[test]
    fn same_row_submits_with_other_arrivals_stay_apart() {
        let cfg = DramConfig::ddr3_1333();
        let trefi = cfg.trefi as i64;
        let loc = AddressMapping::new(&cfg, Interleave::RowRankBankColChan).decode(0);
        for occupy_bus in [true, false] {
            for is_write in [false, true] {
                for (first, second) in [(0, 40), (0, 3_000), (trefi - 60, trefi + 5)] {
                    let ctx = format!("arrivals {first}/{second} write={is_write} bus={occupy_bus}");
                    let mut fast = Channel::new(cfg);
                    let mut slow = RefChannel::new(cfg);
                    let mut txs = run_of(0, loc, is_write, first, 16);
                    txs.extend(run_of(16, loc, is_write, second, 16));
                    drain_agrees(&mut fast, &mut slow, &txs, 0, occupy_bus, &ctx);
                    assert_eq!(fast.fr_fcfs_picks(), 2, "{ctx}: one pick per run");
                }
            }
        }
    }

    /// A run queued behind an older entry whose row is closed: served
    /// first when its row is open (an open-row pick past the head), or
    /// after the head when no row is open.
    #[test]
    fn run_behind_an_older_closed_row_entry_matches_reference() {
        let cfg = DramConfig { trefi: 0, ..DramConfig::ddr3_1333() };
        let loc = AddressMapping::new(&cfg, Interleave::RowRankBankColChan).decode(0);
        let other_row = Location { row: loc.row + 1, ..loc };
        let other_bank = Location { bank: (loc.bank + 1) % cfg.banks, ..loc };
        for is_write in [false, true] {
            for occupy_bus in [true, false] {
                for (name, blocker) in [("conflict", other_row), ("other bank", other_bank)] {
                    let ctx = format!("{name} write={is_write} bus={occupy_bus}");
                    let mut fast = Channel::new(cfg);
                    let mut slow = RefChannel::new(cfg);
                    // No row open yet: the head is served first.
                    let mut txs = run_of(0, blocker, false, 0, 1);
                    txs.extend(run_of(1, loc, is_write, 0, 24));
                    let now = drain_agrees(&mut fast, &mut slow, &txs, 0, occupy_bus, &ctx);
                    // The run's row is now open and the blocker's closed
                    // (or on another bank, idle): the run overtakes it.
                    let mut txs = run_of(100, other_row, false, now, 1);
                    txs.extend(run_of(101, loc, is_write, now, 24));
                    txs.extend(run_of(200, blocker, true, now, 3));
                    drain_agrees(&mut fast, &mut slow, &txs, now, occupy_bus, &ctx);
                }
            }
        }
    }
}
