//! Per-channel memory controller: transaction queue, FR-FCFS scheduling,
//! command generation under bank/rank/bus constraints, and refresh.
//!
//! The controller is *event-stepped* rather than ticked: it repeatedly
//! picks the best transaction (row hits first, then oldest), computes the
//! earliest legal issue time for its next command given all constraints,
//! and commits it. That keeps full-path ORAM workloads (hundreds of
//! transactions per access) fast to simulate while preserving the timing
//! interactions that matter: row-buffer locality, bank parallelism, bus
//! occupancy, tRRD/tFAW and refresh. There is no write-to-read
//! turnaround (tWTR), and back-to-back bursts are spaced by data-bus
//! occupancy alone ([`DramConfig::burst_cycles`], equal to tCCD at DDR3's
//! burst length).
//!
//! The per-block path is free of pointer chasing and division: banks
//! live in one flat `Vec` indexed `rank * banks + bank`. Consecutively
//! submitted transactions with one bank, row, direction and arrival queue
//! as one *run*: a compact entry in one reused `Vec`, threaded in arrival
//! order by `u32` links so the FR-FCFS winner unlinks in O(1). Once a pick
//! selects a run's first transaction, the rest would win the next picks
//! one by one, so the whole run is served in closed form instead (see
//! `Channel::serve_rest`).

use crate::address::Location;
use crate::bank::{Bank, Command, RowState};
use crate::config::DramConfig;
use crate::energy::EnergyCounters;

/// A memory transaction: one 64-byte burst read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Caller-chosen identifier returned in the [`Completion`].
    pub id: u64,
    /// Decoded target location.
    pub loc: Location,
    /// `true` for writes.
    pub is_write: bool,
    /// Cycle (DRAM clock) at which the transaction enters the queue.
    pub arrival: i64,
}

/// A finished transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id given at submission.
    pub id: u64,
    /// Cycle at which the data burst completed (read data valid at the
    /// pins / write data fully transferred).
    pub finish: i64,
}

/// Cycle decomposition (DRAM clock) of one serviced transaction: where
/// the cycles between queue entry (`base = max(now, arrival)`) and the
/// data-burst finish went. The three components partition that interval
/// exactly: `queue + row + transfer == finish − base`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxBreakdown {
    /// Cycles waiting before/between row and column activity: bank
    /// readiness, refresh stalls, tRRD/tFAW spacing and data-bus
    /// back-pressure.
    pub queue: u64,
    /// Cycles spent on row operations (precharge on a conflict, then
    /// activate + tRCD). Zero for row-buffer hits.
    pub row: u64,
    /// CAS latency plus burst-transfer cycles.
    pub transfer: u64,
    /// Absolute finish time (DRAM clock) of the data burst.
    pub finish: i64,
}

/// Buckets of the dense per-channel queue-depth histogram (depths
/// `0..QUEUE_DEPTH_BUCKETS-1`, last bucket saturating).
pub const QUEUE_DEPTH_BUCKETS: usize = 65;

/// Point-in-time utilization snapshot of one channel, for profiling.
/// Counters are monotone, so a measured interval is the elementwise
/// [`ChannelUtilization::delta`] of two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelUtilization {
    /// Scheduling statistics (reads/writes, row hit/miss/conflict, ...).
    pub stats: ChannelStats,
    /// Cycles the channel's data bus spent transferring bursts.
    pub busy_cycles: u64,
    /// Queue depth observed by each arriving transaction
    /// ([`QUEUE_DEPTH_BUCKETS`] dense buckets, last saturating).
    pub queue_depth_hist: Vec<u64>,
    /// Transactions serviced per bank (`[rank][bank]` flattened).
    pub bank_touches: Vec<u64>,
    /// Cycles each bank spent actively servicing (row operations plus
    /// column access and transfer), `[rank][bank]` flattened.
    pub bank_busy: Vec<u64>,
}

impl ChannelUtilization {
    /// Elementwise difference `self − base` (counters are monotone).
    pub fn delta(&self, base: &ChannelUtilization) -> ChannelUtilization {
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter()
                .enumerate()
                .map(|(i, v)| v.saturating_sub(b.get(i).copied().unwrap_or(0)))
                .collect()
        };
        ChannelUtilization {
            stats: ChannelStats {
                reads: self.stats.reads - base.stats.reads,
                writes: self.stats.writes - base.stats.writes,
                row_hits: self.stats.row_hits - base.stats.row_hits,
                row_misses: self.stats.row_misses - base.stats.row_misses,
                row_conflicts: self.stats.row_conflicts - base.stats.row_conflicts,
                activates: self.stats.activates - base.stats.activates,
                precharges: self.stats.precharges - base.stats.precharges,
                refreshes: self.stats.refreshes - base.stats.refreshes,
            },
            busy_cycles: self.busy_cycles - base.busy_cycles,
            queue_depth_hist: sub(&self.queue_depth_hist, &base.queue_depth_hist),
            bank_touches: sub(&self.bank_touches, &base.bank_touches),
            bank_busy: sub(&self.bank_busy, &base.bank_busy),
        }
    }

    /// Fraction of serviced transactions that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.stats.row_hits + self.stats.row_misses + self.stats.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.stats.row_hits as f64 / total as f64
        }
    }

    /// Queue-depth quantile (`q` in `[0, 1]`) from the dense histogram.
    pub fn queue_depth_quantile(&self, q: f64) -> usize {
        let total: u64 = self.queue_depth_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (depth, &n) in self.queue_depth_hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return depth;
            }
        }
        self.queue_depth_hist.len() - 1
    }

    /// Deepest queue depth observed.
    pub fn queue_depth_max(&self) -> usize {
        self.queue_depth_hist.iter().rposition(|&n| n > 0).unwrap_or(0)
    }
}

/// Scheduling statistics for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Transactions that hit an open row.
    pub row_hits: u64,
    /// Transactions that required opening a row on an idle bank.
    pub row_misses: u64,
    /// Transactions that had to close another row first (conflicts).
    pub row_conflicts: u64,
    /// Activates issued.
    pub activates: u64,
    /// Precharges issued.
    pub precharges: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
}

/// End-of-list link in the channel's transaction queue.
const NIL: u32 = u32::MAX;

/// A run of consecutively submitted transactions with one bank, row,
/// direction and arrival, in the compact form the scheduler walks: the
/// fields service needs, the span of the run's ids, and the intrusive
/// link to the next-younger queued run.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The run's transaction ids are `ids[start..start + len]`.
    start: u32,
    len: u32,
    row: u64,
    arrival: i64,
    /// Flat bank index, `rank * banks + bank`.
    bank: u32,
    rank: u32,
    is_write: bool,
    /// Index of the next-younger queued run, or [`NIL`].
    next: u32,
}

/// The transaction queue: runs in arrival order in one reused `Vec`,
/// threaded by `next` links so the scheduler can unlink any run in O(1),
/// with their ids in submission order in a second one. Unlinked runs stay
/// in the `Vec` until the queue empties, when both are cleared (keeping
/// their capacity). Runs are unlinked only by a drain, which runs until
/// the queue is empty, so `tail` is only read by pushes onto a queue
/// nothing has been unlinked from.
#[derive(Debug, Clone)]
struct TxQueue {
    runs: Vec<Run>,
    ids: Vec<u64>,
    head: u32,
    tail: u32,
    /// Queued transactions.
    len: usize,
}

impl TxQueue {
    fn new() -> Self {
        TxQueue { runs: Vec::new(), ids: Vec::new(), head: NIL, tail: NIL, len: 0 }
    }

    /// Appends `t`, whose flat bank index is `bank`: to the tail run if it
    /// shares the run's bank, row, direction and arrival, else as a new run.
    fn push(&mut self, t: &Transaction, bank: u32) {
        assert!(self.ids.len() < NIL as usize, "channel queue index space exhausted");
        self.ids.push(t.id);
        self.len += 1;
        if self.len > 1 {
            let tail = &mut self.runs[self.tail as usize];
            if tail.bank == bank
                && tail.row == t.loc.row
                && tail.is_write == t.is_write
                && tail.arrival == t.arrival
            {
                tail.len += 1;
                return;
            }
        }
        let i = self.runs.len() as u32;
        self.runs.push(Run {
            start: self.ids.len() as u32 - 1,
            len: 1,
            row: t.loc.row,
            arrival: t.arrival,
            bank,
            rank: t.loc.rank as u32,
            is_write: t.is_write,
            next: NIL,
        });
        if self.len == 1 {
            self.head = i;
        } else {
            self.runs[self.tail as usize].next = i;
        }
        self.tail = i;
    }

    /// Unlinks run `cur`, whose predecessor in the list is `prev` ([`NIL`]
    /// for the head).
    fn unlink(&mut self, prev: u32, cur: u32) {
        let r = self.runs[cur as usize];
        if prev == NIL {
            self.head = r.next;
        } else {
            self.runs[prev as usize].next = r.next;
        }
        self.len -= r.len as usize;
        if self.len == 0 {
            self.runs.clear();
            self.ids.clear();
        }
    }
}

/// Times of a rank's last four activates, oldest first: all that tRRD
/// (the newest) and tFAW (the fourth newest) consult.
#[derive(Debug, Clone, Copy, Default)]
struct ActivateWindow {
    times: [i64; 4],
    count: usize,
}

impl ActivateWindow {
    /// Earliest activate time at or after `at` that respects tRRD and
    /// tFAW.
    fn earliest(&self, at: i64, cfg: &DramConfig) -> i64 {
        let mut at = at;
        if self.count >= 1 {
            at = at.max(self.times[3] + cfg.trrd as i64);
        }
        if self.count >= 4 {
            at = at.max(self.times[0] + cfg.tfaw as i64);
        }
        at
    }

    fn push(&mut self, at: i64) {
        self.times.copy_within(1.., 0);
        self.times[3] = at;
        self.count = (self.count + 1).min(4);
    }
}

/// One channel: banks, queue and data-bus state.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: DramConfig,
    /// Banks indexed `rank * banks + bank`.
    banks: Vec<Bank>,
    queue: TxQueue,
    /// Cycle after which the shared data bus is free.
    bus_free: i64,
    /// Recent activate times per rank (for tFAW / tRRD).
    recent_activates: Vec<ActivateWindow>,
    /// Next refresh deadline per rank.
    next_refresh: Vec<i64>,
    stats: ChannelStats,
    energy: EnergyCounters,
    /// Breakdown of the longest-finishing transaction since the last
    /// [`Channel::begin_batch`] (the batch's critical transaction).
    batch_crit: Option<TxBreakdown>,
    /// Data-bus burst occupancy accumulated over the run.
    busy_cycles: u64,
    /// Queue depth seen by each arriving transaction (dense, saturating).
    queue_depth_hist: [u64; QUEUE_DEPTH_BUCKETS],
    /// Transactions serviced per bank (`[rank][bank]` flattened).
    bank_touches: Vec<u64>,
    /// Active service cycles per bank (`[rank][bank]` flattened).
    bank_busy: Vec<u64>,
    /// FR-FCFS selections made since the channel was created.
    picks: u64,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        let bank_count = cfg.ranks * cfg.banks;
        Channel {
            banks: vec![Bank::new(); bank_count],
            queue: TxQueue::new(),
            bus_free: 0,
            recent_activates: vec![ActivateWindow::default(); cfg.ranks],
            next_refresh: vec![cfg.trefi as i64; cfg.ranks],
            stats: ChannelStats::default(),
            energy: EnergyCounters::default(),
            batch_crit: None,
            busy_cycles: 0,
            queue_depth_hist: [0; QUEUE_DEPTH_BUCKETS],
            bank_touches: vec![0; bank_count],
            bank_busy: vec![0; bank_count],
            picks: 0,
            cfg,
        }
    }

    /// Resets the batch-critical breakdown; subsequent [`Channel::drain`]
    /// calls record the decomposition of the longest-finishing
    /// transaction until the next reset.
    pub fn begin_batch(&mut self) {
        self.batch_crit = None;
    }

    /// Breakdown of the critical (longest-finishing) transaction serviced
    /// since the last [`Channel::begin_batch`], if any were serviced.
    pub fn batch_critical(&self) -> Option<TxBreakdown> {
        self.batch_crit
    }

    /// Utilization snapshot (allocates; intended for run boundaries, not
    /// the access hot path).
    pub fn utilization(&self) -> ChannelUtilization {
        ChannelUtilization {
            stats: self.stats,
            busy_cycles: self.busy_cycles,
            queue_depth_hist: self.queue_depth_hist.to_vec(),
            bank_touches: self.bank_touches.clone(),
            bank_busy: self.bank_busy.clone(),
        }
    }

    /// Queue depth.
    pub fn pending(&self) -> usize {
        self.queue.len
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Energy counters snapshot.
    pub fn energy(&self) -> EnergyCounters {
        self.energy
    }

    /// FR-FCFS selections made so far. Each serves one same-row run, so
    /// serviced transactions per pick is the mean run length.
    pub fn fr_fcfs_picks(&self) -> u64 {
        self.picks
    }

    /// Enqueues a transaction.
    ///
    /// # Panics
    ///
    /// Panics if the transaction's rank or bank is outside this channel's
    /// geometry.
    pub fn submit(&mut self, t: Transaction) {
        assert!(
            t.loc.rank < self.cfg.ranks && t.loc.bank < self.cfg.banks,
            "transaction targets rank {} bank {} outside the channel",
            t.loc.rank,
            t.loc.bank
        );
        self.queue_depth_hist[self.queue.len.min(QUEUE_DEPTH_BUCKETS - 1)] += 1;
        self.queue.push(&t, (t.loc.rank * self.cfg.banks + t.loc.bank) as u32);
    }

    /// Services the whole queue, returning completions in finish order.
    /// `now` lower-bounds all issue times.
    pub fn drain(&mut self, now: i64) -> Vec<Completion> {
        self.drain_with(now, true)
    }

    /// Like [`Channel::drain`], but when `occupy_bus` is `false` read
    /// bursts do not hold the shared data bus (models an in-memory XOR
    /// hub that consumes read data locally and returns a single block).
    pub fn drain_with(&mut self, now: i64, occupy_bus: bool) -> Vec<Completion> {
        let mut done = Vec::with_capacity(self.queue.len);
        self.drain_unordered(now, occupy_bus, |c| done.push(c));
        done.sort_by_key(|c| c.finish);
        done
    }

    /// Like [`Channel::drain_with`], but delivers completions through a
    /// callback in service order (not finish order) without allocating.
    /// This keeps the simulator's steady-state access loop off the heap.
    pub fn drain_unordered(
        &mut self,
        now: i64,
        occupy_bus: bool,
        mut sink: impl FnMut(Completion),
    ) {
        while self.queue.len > 0 {
            let (prev, cur) = self.pick_fr_fcfs();
            self.picks += 1;
            let run = self.queue.runs[cur as usize];
            let finish = self.service_one(&run, now, occupy_bus);
            sink(Completion { id: self.queue.ids[run.start as usize], finish });
            if run.len > 1 {
                self.serve_rest(&run, now, occupy_bus, &mut sink);
            }
            self.queue.unlink(prev, cur);
        }
    }

    /// Serves, in closed form, all but the first transaction of `run`,
    /// whose first transaction the FR-FCFS pick just serviced.
    ///
    /// Each of them would be the next FR-FCFS winner anyway. If the pick
    /// was an open-row one, every older transaction's row was closed, and
    /// serving the first opened no other row; if the pick was the head,
    /// nothing is older. So the oldest open-row transaction is always the
    /// run's next one. The run shares one `base = max(now, arrival)`, and
    /// the first transaction's refresh check already moved the rank's
    /// deadline past it, so no refresh fires inside the run. Every later
    /// transaction is a row hit whose column command waits on the same
    /// `bank.earliest(cmd)`; on the data bus they issue one burst apart,
    /// off it all at once.
    fn serve_rest(
        &mut self,
        run: &Run,
        now: i64,
        occupy_bus: bool,
        sink: &mut impl FnMut(Completion),
    ) {
        let cfg = self.cfg;
        let flat = run.bank as usize;
        let base = now.max(run.arrival);
        let cmd = if run.is_write { Command::Write } else { Command::Read };
        let latency = if run.is_write { cfg.cwl } else { cfg.cl } as i64;
        let burst = cfg.burst_cycles() as i64;
        let use_bus = occupy_bus || run.is_write;
        let bank_ready = self.banks[flat].earliest(cmd, &cfg).max(base);
        let first_issue =
            if use_bus { bank_ready.max(self.bus_free - latency) } else { bank_ready };
        let step = if use_bus { burst } else { 0 };

        let rest = &self.queue.ids[run.start as usize + 1..(run.start + run.len) as usize];
        let mut issue = first_issue;
        for &id in rest {
            sink(Completion { id, finish: issue + latency + burst });
            issue += step;
        }
        let last_issue = issue - step;
        let last_finish = last_issue + latency + burst;
        let count = rest.len() as u64;

        // Bank timing is monotone in the issue time, so committing the
        // run's last column command leaves the bank as committing each.
        self.banks[flat].issue(cmd, last_issue, run.row, &cfg);
        if use_bus {
            self.bus_free = last_finish;
            self.busy_cycles += count * cfg.burst_cycles();
        }
        // Strict `>` keeps the earliest of equal finishes: the last
        // transaction when bursts are spaced on the bus, else the first.
        let crit_issue = if step > 0 { last_issue } else { first_issue };
        let crit_finish = crit_issue + latency + burst;
        if self.batch_crit.is_none_or(|c| crit_finish > c.finish) {
            self.batch_crit = Some(TxBreakdown {
                queue: (crit_issue - base) as u64,
                row: 0,
                transfer: (latency + burst) as u64,
                finish: crit_finish,
            });
        }
        self.bank_touches[flat] += count;
        self.bank_busy[flat] += count * (latency + burst) as u64;
        self.stats.row_hits += count;
        if run.is_write {
            self.stats.writes += count;
            self.energy.write_bursts += count;
        } else {
            self.stats.reads += count;
            self.energy.read_bursts += count;
        }
        self.energy.busy_until = self.energy.busy_until.max(last_finish);
    }

    /// FR-FCFS: the oldest transaction whose row is open wins; otherwise
    /// the oldest overall. A run's transactions share a row, so the walk
    /// visits runs. Returns `(predecessor, winner)` run indices.
    fn pick_fr_fcfs(&self) -> (u32, u32) {
        let runs = &self.queue.runs;
        let mut prev = NIL;
        let mut cur = self.queue.head;
        while cur != NIL {
            let r = &runs[cur as usize];
            if self.banks[r.bank as usize].is_open(r.row) {
                return (prev, cur);
            }
            prev = cur;
            cur = r.next;
        }
        (NIL, self.queue.head)
    }

    /// Issues all commands needed by the first transaction of run `t` and
    /// returns its data-finish time.
    fn service_one(&mut self, t: &Run, now: i64, occupy_bus: bool) -> i64 {
        let cfg = self.cfg;
        let base = now.max(t.arrival);
        let flat = t.bank as usize;
        self.maybe_refresh(t.rank as usize, base);

        // Row-operation interval [row_start, row_end] for attribution:
        // empty on a row hit, precharge-to-column-ready on a conflict,
        // activate-to-column-ready on a miss.
        let mut row_start = base;
        let mut row_end = base;
        match self.banks[flat].state() {
            RowState::Open(r) if r == t.row => {
                self.stats.row_hits += 1;
            }
            RowState::Open(_) => {
                self.stats.row_conflicts += 1;
                let bank = &mut self.banks[flat];
                let at = bank.earliest(Command::Precharge, &cfg).max(base);
                bank.issue(Command::Precharge, at, 0, &cfg);
                self.stats.precharges += 1;
                self.energy.precharges += 1;
                self.activate(t, base);
                row_start = at;
                row_end = self.banks[flat].row_ready(&cfg);
            }
            RowState::Idle => {
                self.stats.row_misses += 1;
                row_start = self.activate(t, base);
                row_end = self.banks[flat].row_ready(&cfg);
            }
        }

        // Column command: constrained by bank readiness and bus occupancy.
        let cmd = if t.is_write { Command::Write } else { Command::Read };
        let bank = &mut self.banks[flat];
        let bank_ready = bank.earliest(cmd, &cfg).max(base);
        // The data burst occupies the bus [issue+latency, issue+latency+burst).
        let latency = if t.is_write { cfg.cwl } else { cfg.cl } as i64;
        let use_bus = occupy_bus || t.is_write;
        let issue = if use_bus {
            bank_ready.max(self.bus_free - latency)
        } else {
            bank_ready
        };
        bank.issue(cmd, issue, t.row, &cfg);
        let data_start = issue + latency;
        let finish = data_start + cfg.burst_cycles() as i64;
        if use_bus {
            self.bus_free = finish;
            self.busy_cycles += cfg.burst_cycles();
        }

        // Exact decomposition of [base, finish]: row cycles are the part
        // of the row interval the column command actually waited behind;
        // everything else before issue is queueing.
        let row_d = row_end.min(issue).saturating_sub(row_start.max(base)).max(0) as u64;
        let queue_d = (issue - base) as u64 - row_d;
        let transfer_d = (finish - issue) as u64;
        let bd = TxBreakdown { queue: queue_d, row: row_d, transfer: transfer_d, finish };
        if self.batch_crit.is_none_or(|c| finish > c.finish) {
            self.batch_crit = Some(bd);
        }
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

    /// Issues an activate of run `t`'s row respecting tRRD and tFAW for the
    /// rank, returning the cycle the activate was committed at.
    fn activate(&mut self, t: &Run, base: i64) -> i64 {
        let cfg = self.cfg;
        let bank = &mut self.banks[t.bank as usize];
        let window = &mut self.recent_activates[t.rank as usize];
        let at = window.earliest(bank.earliest(Command::Activate, &cfg).max(base), &cfg);
        bank.issue(Command::Activate, at, t.row, &cfg);
        window.push(at);
        self.stats.activates += 1;
        self.energy.activates += 1;
        at
    }

    /// Performs any due refreshes for `rank` before `now` by stalling the
    /// whole rank for tRFC (all-bank refresh; rows must be precharged).
    fn maybe_refresh(&mut self, rank: usize, now: i64) {
        if self.cfg.trefi == 0 {
            return;
        }
        let cfg = self.cfg;
        while self.next_refresh[rank] <= now {
            let deadline = self.next_refresh[rank];
            let rank_banks = &mut self.banks[rank * cfg.banks..(rank + 1) * cfg.banks];
            // Precharge any open banks in the rank.
            for bank in rank_banks.iter_mut() {
                if bank.state() != RowState::Idle {
                    let at = bank.earliest(Command::Precharge, &cfg).max(deadline);
                    bank.issue(Command::Precharge, at, 0, &cfg);
                    self.stats.precharges += 1;
                    self.energy.precharges += 1;
                }
            }
            // The whole rank is unavailable for tRFC.
            let resume = deadline + cfg.trfc as i64;
            for bank in rank_banks.iter_mut() {
                bank.stall_until(resume, &cfg);
            }
            self.stats.refreshes += 1;
            self.energy.refreshes += 1;
            self.next_refresh[rank] += cfg.trefi as i64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{AddressMapping, Interleave};

    fn cfg() -> DramConfig {
        let mut c = DramConfig::ddr3_1333();
        c.trefi = 0; // deterministic tests without refresh
        c
    }

    fn tx(id: u64, addr: u64, write: bool, cfg: &DramConfig) -> Transaction {
        let m = AddressMapping::new(cfg, Interleave::RowRankBankColChan);
        Transaction { id, loc: m.decode(addr), is_write: write, arrival: 0 }
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_burst() {
        let c = cfg();
        let mut ch = Channel::new(c);
        ch.submit(tx(1, 0, false, &c));
        let done = ch.drain(0);
        assert_eq!(done.len(), 1);
        let expect = (c.trcd + c.cl + c.burst_cycles()) as i64;
        assert_eq!(done[0].finish, expect);
        assert_eq!(ch.stats().row_misses, 1);
    }

    #[test]
    fn row_hits_stream_at_bus_rate() {
        let c = cfg();
        let mut ch = Channel::new(c);
        // Same row: columns 0..8 on channel 0 (addresses step by
        // channels to stay on channel 0's row).
        for i in 0..8u64 {
            ch.submit(tx(i, i * c.channels as u64, false, &c));
        }
        let done = ch.drain(0);
        assert_eq!(ch.stats().row_hits, 7);
        // After the first access, consecutive bursts complete every
        // burst_cycles (bus-limited streaming).
        let gaps: Vec<i64> = done.windows(2).map(|w| w[1].finish - w[0].finish).collect();
        assert!(gaps.iter().all(|&g| g == c.burst_cycles() as i64), "{gaps:?}");
    }

    #[test]
    fn row_conflict_pays_precharge_plus_activate() {
        let c = cfg();
        let mut ch = Channel::new(c);
        ch.submit(tx(1, 0, false, &c));
        // Same bank, different row: bursts_per_row*banks*ranks apart in
        // column-major decode; easier to construct via decode probing.
        let m = AddressMapping::new(&c, Interleave::RowRankBankColChan);
        let base = m.decode(0);
        let mut conflict_addr = None;
        for a in 1..1_000_000u64 {
            let l = m.decode(a);
            if l.channel == base.channel
                && l.rank == base.rank
                && l.bank == base.bank
                && l.row != base.row
            {
                conflict_addr = Some(a);
                break;
            }
        }
        ch.submit(tx(2, conflict_addr.unwrap(), false, &c));
        let done = ch.drain(0);
        assert_eq!(ch.stats().row_conflicts, 1);
        // Second access must wait ≥ tRAS + tRP after the first activate.
        let min_second = (c.tras + c.trp + c.trcd + c.cl + c.burst_cycles()) as i64;
        assert!(done[1].finish >= min_second, "{} < {min_second}", done[1].finish);
    }

    #[test]
    fn bank_parallelism_beats_serial_access() {
        let c = cfg();
        // Two different banks: overlap activates.
        let m = AddressMapping::new(&c, Interleave::RowRankBankColChan);
        let mut other_bank = None;
        let base = m.decode(0);
        for a in 1..1_000_000u64 {
            let l = m.decode(a);
            if l.channel == base.channel && (l.bank != base.bank || l.rank != base.rank) {
                other_bank = Some(a);
                break;
            }
        }
        let mut ch = Channel::new(c);
        ch.submit(tx(1, 0, false, &c));
        ch.submit(tx(2, other_bank.unwrap(), false, &c));
        let done = ch.drain(0);
        let serial = 2 * (c.trcd + c.cl + c.burst_cycles()) as i64;
        assert!(done[1].finish < serial, "no overlap: {}", done[1].finish);
    }

    #[test]
    fn fr_fcfs_prefers_open_rows() {
        let c = cfg();
        let m = AddressMapping::new(&c, Interleave::RowRankBankColChan);
        let mut ch = Channel::new(c);
        // t1 opens row R; t2 conflicts (same bank, other row); t3 hits R.
        let base = m.decode(0);
        let mut conflict = None;
        for a in 1..1_000_000u64 {
            let l = m.decode(a);
            if l.channel == base.channel
                && l.rank == base.rank
                && l.bank == base.bank
                && l.row != base.row
            {
                conflict = Some(a);
                break;
            }
        }
        ch.submit(tx(1, 0, false, &c));
        ch.submit(tx(2, conflict.unwrap(), false, &c));
        ch.submit(tx(3, c.channels as u64, false, &c)); // same row as t1
        let done = ch.drain(0);
        let order: Vec<u64> = done.iter().map(|d| d.id).collect();
        assert_eq!(order, vec![1, 3, 2], "row hit t3 bypasses conflicting t2");
    }

    #[test]
    fn write_then_same_row_read_completes_in_order() {
        let c = cfg();
        let mut ch = Channel::new(c);
        ch.submit(tx(1, 0, true, &c));
        ch.submit(tx(2, c.channels as u64, false, &c)); // same row read
        let done = ch.drain(0);
        assert_eq!(ch.stats().writes, 1);
        assert_eq!(ch.stats().reads, 1);
        assert!(done[1].finish > done[0].finish);
    }

    #[test]
    #[should_panic(expected = "outside the channel")]
    fn submit_rejects_a_bank_outside_the_geometry() {
        let c = cfg();
        let mut ch = Channel::new(c);
        let mut t = tx(1, 0, false, &c);
        // Rank 0, bank `banks`: in flat indexing this would alias rank 1.
        t.loc.bank = c.banks;
        ch.submit(t);
    }

    #[test]
    fn breakdown_partitions_service_time_exactly() {
        let c = cfg();
        let mut ch = Channel::new(c);
        ch.begin_batch();
        assert!(ch.batch_critical().is_none());
        ch.submit(tx(1, 0, false, &c));
        ch.submit(tx(2, c.channels as u64, false, &c)); // same-row hit
        let done = ch.drain(0);
        let crit = ch.batch_critical().expect("batch serviced");
        let last = done.iter().map(|d| d.finish).max().unwrap();
        assert_eq!(crit.finish, last, "critical transaction is the longest-finishing");
        assert_eq!(
            crit.queue + crit.row + crit.transfer,
            crit.finish as u64,
            "components partition [base, finish] exactly"
        );
        ch.begin_batch();
        assert!(ch.batch_critical().is_none(), "begin_batch resets");
    }

    #[test]
    fn utilization_counters_accumulate_and_delta() {
        let c = cfg();
        let mut ch = Channel::new(c);
        let before = ch.utilization();
        for i in 0..4u64 {
            ch.submit(tx(i, i * c.channels as u64, false, &c));
        }
        ch.drain(0);
        let d = ch.utilization().delta(&before);
        assert_eq!(d.stats.reads, 4);
        assert_eq!(d.busy_cycles, 4 * c.burst_cycles());
        // Queue depth is sampled at arrival: depths 0, 1, 2, 3.
        assert_eq!(d.queue_depth_hist.iter().sum::<u64>(), 4);
        assert_eq!(d.queue_depth_max(), 3);
        assert_eq!(d.queue_depth_quantile(0.5), 1);
        assert_eq!(d.bank_touches.iter().sum::<u64>(), 4);
        assert!(d.bank_busy.iter().sum::<u64>() > 0);
        // Three of four accesses hit the open row.
        assert!((d.row_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn refresh_inserts_stall() {
        let mut c = DramConfig::ddr3_1333();
        c.trefi = 100;
        c.trfc = 50;
        let mut ch = Channel::new(c);
        // Arrival after two refresh intervals.
        let m = AddressMapping::new(&c, Interleave::RowRankBankColChan);
        ch.submit(Transaction { id: 1, loc: m.decode(0), is_write: false, arrival: 250 });
        let done = ch.drain(0);
        assert!(ch.stats().refreshes >= 2);
        // Finish must be at least after the last refresh window + access.
        assert!(done[0].finish >= 250 + (c.trcd + c.cl + c.burst_cycles()) as i64);
    }
}
