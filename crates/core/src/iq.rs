//! The unified instruction queue with every scheduler variant of §6.2:
//! SHIFT, CIRC, RAND, AGE, MULT, Orinoco and the criticality-aware CRI
//! variants.
//!
//! The AGE/MULT/CRI variants drive a real [`AgeMatrix`]; SHIFT and plain
//! Orinoco rank ready entries by sequence number (for Orinoco that *is*
//! the matrix age order, checked against a rebuilt matrix by
//! `Core::debug_verify_commit_invariants`); CIRC derives order from
//! (virtual) queue position; RAND is order-oblivious. All variants
//! allocate entries from a free list except CIRC, whose gaps stay unusable
//! until the head passes them — the capacity inefficiency of Figure 1(b).

use crate::config::{Pool, SchedulerKind};
use crate::rename::PhysReg;
use orinoco_matrix::{AgeMatrix, BitVec64};

/// An instruction resident in the IQ.
#[derive(Clone, Debug)]
pub struct IqEntry {
    /// ROB index of the instruction.
    pub rob_idx: usize,
    /// Functional-unit pool it needs.
    pub pool: Pool,
    /// Criticality tag (CRI schedulers).
    pub critical: bool,
    /// Dynamic sequence number (the age order of SHIFT and plain Orinoco;
    /// the matrix schedulers never consult it).
    pub seq: u64,
    /// Source physical registers.
    pub srcs: [Option<PhysReg>; 2],
    /// Per-source readiness.
    pub src_ready: [bool; 2],
    /// Which sources gate issue. Stores issue their address generation as
    /// soon as the address register (source 0) is ready — the data
    /// (source 1) merges at completion — so dispatch sets
    /// `[true, false]` for them (§3.2: translation happens early in the
    /// pipeline, clearing the `SPEC` bit before the data arrives).
    pub wait_on: [bool; 2],
}

impl IqEntry {
    /// `true` once every issue-gating source is ready.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        (0..2).all(|i| !self.wait_on[i] || self.srcs[i].is_none() || self.src_ready[i])
    }
}

/// The unified issue queue.
#[derive(Clone, Debug)]
pub struct IssueQueue {
    kind: SchedulerKind,
    cap: usize,
    slots: Vec<Option<IqEntry>>,
    free: Vec<usize>,
    age: AgeMatrix,
    cri: BitVec64,
    count: usize,
    // CIRC state: ring [head, tail) including gaps.
    head: usize,
    tail: usize,
    span: usize,
    /// Deterministic xorshift state for the random picks of RAND/AGE/MULT
    /// ("the remaining issue width is selected randomly in terms of age",
    /// §2.1).
    rng: u64,
    /// Per-physical-register wakeup lists: `(slot, source index, seq)`
    /// rows appended when an entry with a not-yet-ready source is
    /// allocated and drained by [`IssueQueue::writeback`] — the exact-
    /// cost replacement for scanning every slot per write-back (the CAM
    /// broadcast). Rows go stale when their slot is freed or recycled
    /// (issue, squash); the seq and source checks at drain time filter
    /// them, and re-registration on replay is idempotent because a wake
    /// only ever sets `src_ready`.
    waiters: Vec<Vec<(usize, u8, u64)>>,
    /// Compact per-slot copy of the occupant's sequence number
    /// (`u64::MAX` when empty): the per-cycle seq sort of the ready set
    /// reads this dense array instead of dereferencing the wide `IqEntry`
    /// slots.
    seq_of: Vec<u64>,
    /// One bit per slot: the occupant's issue-gating sources are all
    /// ready (mirrors [`IqEntry::is_ready`], updated at allocation and
    /// wake-up).
    ready_bits: BitVec64,
    /// Population count of `ready_bits`, maintained incrementally at the
    /// three mutation sites (allocate, remove, wake-up) so the per-cycle
    /// request-vector probe is O(1) instead of a popcount scan.
    nready: usize,
    // Reusable scratch for the per-cycle select path (allocation-free in
    // steady state; see DESIGN.md §"Performance engineering").
    scratch_order: Vec<usize>,
    scratch_part: Vec<usize>,
    scratch_req: BitVec64,
}

impl IssueQueue {
    /// Creates an issue queue of `cap` entries with the given scheduler.
    #[must_use]
    pub fn new(kind: SchedulerKind, cap: usize) -> Self {
        Self {
            kind,
            cap,
            slots: vec![None; cap],
            free: (0..cap).rev().collect(),
            age: AgeMatrix::new(cap),
            cri: BitVec64::new(cap),
            count: 0,
            head: 0,
            tail: 0,
            span: 0,
            rng: 0x9E37_79B9_7F4A_7C15 ^ cap as u64,
            waiters: Vec::new(),
            seq_of: vec![u64::MAX; cap],
            ready_bits: BitVec64::new(cap),
            nready: 0,
            scratch_order: Vec::with_capacity(cap),
            scratch_part: Vec::with_capacity(cap),
            scratch_req: BitVec64::new(cap),
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fisher-Yates shuffle with the IQ's deterministic RNG.
    fn shuffle(&mut self, v: &mut [usize]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_rand() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// The scheduler variant.
    #[must_use]
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `true` if another instruction can be allocated *this cycle*. For
    /// CIRC this accounts for unreclaimed gaps (the capacity
    /// inefficiency); for everything else it is a free-list check.
    #[must_use]
    pub fn has_space(&self) -> bool {
        if self.kind == SchedulerKind::Circ {
            self.span < self.cap
        } else {
            !self.free.is_empty()
        }
    }

    fn uses_matrix(&self) -> bool {
        matches!(
            self.kind,
            SchedulerKind::Age
                | SchedulerKind::Mult
                | SchedulerKind::CriAge
                | SchedulerKind::CriOrinoco
        )
    }

    /// Allocates an entry; returns its slot, or `None` when full.
    pub fn allocate(&mut self, entry: IqEntry) -> Option<usize> {
        let slot = if self.kind == SchedulerKind::Circ {
            if self.span == self.cap {
                return None;
            }
            let s = self.tail;
            debug_assert!(self.slots[s].is_none(), "CIRC tail collision");
            self.tail = (self.tail + 1) % self.cap;
            self.span += 1;
            s
        } else {
            self.free.pop()?
        };
        if self.uses_matrix() {
            if entry.critical && self.kind.uses_criticality() {
                self.age.dispatch_critical(slot, &self.cri);
                self.cri.set(slot);
            } else {
                self.age.dispatch(slot);
            }
        }
        let srcs = entry.srcs;
        let src_ready = entry.src_ready;
        let seq = entry.seq;
        self.seq_of[slot] = seq;
        let ready = entry.is_ready();
        self.ready_bits.assign(slot, ready);
        self.nready += usize::from(ready);
        self.slots[slot] = Some(entry);
        self.count += 1;
        for i in 0..2 {
            if let Some(p) = srcs[i] {
                if !src_ready[i] {
                    self.register_waiter(p, slot, i as u8, seq);
                }
            }
        }
        Some(slot)
    }

    /// Pre-sizes the wakeup lists for a register file of `nregs`
    /// physical registers, so the steady-state allocate/writeback path
    /// never grows them (see `crates/core/tests/alloc_free.rs`).
    #[must_use]
    pub fn with_regs(mut self, nregs: usize) -> Self {
        self.waiters.resize_with(nregs, Vec::new);
        for list in &mut self.waiters {
            list.reserve_exact(self.cap * 2);
        }
        self
    }

    /// Appends a wakeup-list row for `p`. Lists never reallocate in
    /// steady state: a full list is first compacted in place (stale rows
    /// from freed/recycled slots dropped), and at most one live row can
    /// exist per `(slot, source)` pair, so the compacted list always has
    /// room at `2 × cap` capacity.
    fn register_waiter(&mut self, p: PhysReg, slot: usize, i: u8, seq: u64) {
        let r = p.0 as usize;
        if r >= self.waiters.len() {
            self.waiters.resize_with(r + 1, Vec::new);
        }
        let list = &mut self.waiters[r];
        if list.capacity() == 0 {
            list.reserve_exact(self.cap * 2);
        } else if list.len() == list.capacity() {
            let slots = &self.slots;
            list.retain(|&(s, j, q)| {
                slots[s]
                    .as_ref()
                    .is_some_and(|e| e.seq == q && e.srcs[j as usize] == Some(p))
            });
        }
        list.push((slot, i, seq));
    }

    /// Removes the entry in `slot` (issue or squash).
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn remove(&mut self, slot: usize) -> IqEntry {
        let entry = self.slots[slot].take().unwrap_or_else(|| {
            panic!("remove of empty IQ slot {slot}")
        });
        self.count -= 1;
        self.seq_of[slot] = u64::MAX;
        self.nready -= usize::from(self.ready_bits.get(slot));
        self.ready_bits.clear(slot);
        if self.uses_matrix() {
            self.age.free(slot);
            self.cri.clear(slot);
        }
        if self.kind == SchedulerKind::Circ {
            // Reclaim the head-side gap run.
            while self.span > 0 && self.slots[self.head].is_none() {
                self.head = (self.head + 1) % self.cap;
                self.span -= 1;
            }
        } else {
            self.free.push(slot);
        }
        entry
    }

    /// Entry accessor.
    #[must_use]
    pub fn entry(&self, slot: usize) -> Option<&IqEntry> {
        self.slots[slot].as_ref()
    }

    /// Write-back broadcast: wakes every entry sourcing `p`. Walks the
    /// register's waiter list rather than every slot; stale rows (the
    /// slot was freed or recycled since registration) fail the seq or
    /// source check and are dropped.
    pub fn writeback(&mut self, p: PhysReg) {
        self.writeback_imp(p, None);
    }

    /// [`IssueQueue::writeback`] that also reports wakeups: appends the
    /// seq of every entry whose **last** gating operand just became ready
    /// (the not-ready → ready transition the trace layer records as a
    /// wakeup event). `woken` is appended to, never cleared.
    pub fn writeback_collect(&mut self, p: PhysReg, woken: &mut Vec<u64>) {
        self.writeback_imp(p, Some(woken));
    }

    fn writeback_imp(&mut self, p: PhysReg, mut woken: Option<&mut Vec<u64>>) {
        let Some(list) = self.waiters.get_mut(p.0 as usize) else {
            return;
        };
        let mut list = std::mem::take(list);
        for &(slot, i, seq) in &list {
            if let Some(e) = self.slots[slot].as_mut() {
                if e.seq == seq && e.srcs[i as usize] == Some(p) {
                    e.src_ready[i as usize] = true;
                    if e.is_ready() && !self.ready_bits.get(slot) {
                        self.ready_bits.set(slot);
                        self.nready += 1;
                        if let Some(w) = woken.as_deref_mut() {
                            w.push(seq);
                        }
                    }
                }
            }
        }
        list.clear();
        self.waiters[p.0 as usize] = list;
    }

    /// Number of entries with all issue-gating operands ready. O(1): the
    /// count is maintained incrementally by allocate/remove/wake-up rather
    /// than recomputed from the request vector every cycle.
    #[must_use]
    pub fn ready_count(&self) -> usize {
        debug_assert_eq!(self.nready, self.ready_bits.count_ones() as usize);
        self.nready
    }

    /// Returns the queue to its post-construction state in place, keeping
    /// every allocation — including the pre-sized wakeup lists of
    /// [`IssueQueue::with_regs`] (core reset path). Free-list order and
    /// the RNG are reinitialised exactly as in [`IssueQueue::new`] so a
    /// reset queue schedules byte-identically to a fresh one.
    pub fn reset(&mut self) {
        for slot in 0..self.cap {
            if self.slots[slot].take().is_some() && self.uses_matrix() {
                self.age.free(slot);
            }
            self.seq_of[slot] = u64::MAX;
        }
        self.free.clear();
        self.free.extend((0..self.cap).rev());
        self.cri.clear_all();
        self.count = 0;
        self.head = 0;
        self.tail = 0;
        self.span = 0;
        self.rng = 0x9E37_79B9_7F4A_7C15 ^ self.cap as u64;
        for list in &mut self.waiters {
            list.clear();
        }
        self.ready_bits.clear_all();
        self.nready = 0;
    }

    fn circ_position(&self, slot: usize) -> usize {
        (slot + self.cap - self.head) % self.cap
    }

    /// Priority-ordered ready slots for this cycle, per the scheduler
    /// variant, written into `out` (head granted first). `part` is extra
    /// scratch for the CriAge class partition. Allocation-free once the
    /// scratch vectors have grown to capacity.
    fn priority_order_into(&mut self, out: &mut Vec<usize>, part: &mut Vec<usize>) {
        out.clear();
        match self.kind {
            // SHIFT: collapsible queue, position == age; ideal order.
            // Orinoco: without criticality adjustment the matrix age order
            // is the dispatch order, which is seq-ascending.
            SchedulerKind::Shift | SchedulerKind::Orinoco => self.ready_by_seq_into(out),
            SchedulerKind::Circ => {
                out.extend(self.ready_bits.iter_ones());
                out.sort_unstable_by_key(|&s| self.circ_position(s));
            }
            SchedulerKind::Rand => {
                // Genuinely random in terms of age.
                out.extend(self.ready_bits.iter_ones());
                self.shuffle(out);
            }
            SchedulerKind::Age => {
                let oldest = self.age.select_single_oldest(&self.ready_bits);
                if let Some(o) = oldest {
                    out.push(o);
                }
                out.extend(self.ready_bits.iter_ones().filter(|&s| Some(s) != oldest));
                let head = usize::from(oldest.is_some());
                self.shuffle(&mut out[head..]);
            }
            SchedulerKind::Mult => {
                // Single oldest of each FU type first, then the rest in
                // random order. At most one head per pool.
                let mut heads = [0usize; 4];
                let mut nheads = 0;
                for pool in Pool::ALL {
                    self.scratch_req.clear_all();
                    for s in self.ready_bits.iter_ones() {
                        if self.slots[s].as_ref().is_some_and(|e| e.pool == pool) {
                            self.scratch_req.set(s);
                        }
                    }
                    if let Some(o) = self.age.select_single_oldest(&self.scratch_req) {
                        heads[nheads] = o;
                        nheads += 1;
                    }
                }
                out.extend_from_slice(&heads[..nheads]);
                out.extend(self.ready_bits.iter_ones().filter(|s| !heads[..nheads].contains(s)));
                self.shuffle(&mut out[nheads..]);
            }
            SchedulerKind::CriAge | SchedulerKind::CriOrinoco => {
                // Full (criticality-adjusted) age order from the bit count
                // encoding. For CriAge the intra-class pseudo-ordering is
                // applied below.
                self.age.select_oldest_into(&self.ready_bits, self.cap, out);
                if self.kind == SchedulerKind::CriAge {
                    // CRI w/ AGE: criticals before non-criticals, but within
                    // each class only the single oldest is age-accurate; the
                    // rest are selected randomly (classic AGE behaviour).
                    part.clear();
                    part.extend(out.iter().copied().filter(|&s| self.cri.get(s)));
                    let ncrit = part.len();
                    part.extend(out.iter().copied().filter(|&s| !self.cri.get(s)));
                    if ncrit > 2 {
                        self.shuffle(&mut part[1..ncrit]);
                    }
                    if part.len() - ncrit > 2 {
                        self.shuffle(&mut part[ncrit + 1..]);
                    }
                    std::mem::swap(out, part);
                }
            }
        }
    }

    /// Selects and removes up to `width` ready instructions, honouring
    /// per-pool FU budgets (decremented in place). The `(slot, entry)`
    /// grants land in the caller-provided buffer (cleared first) in grant
    /// order. This is the hot path used by the pipeline every cycle.
    pub fn select_into(
        &mut self,
        pool_budget: &mut [usize; 4],
        width: usize,
        grants: &mut Vec<(usize, IqEntry)>,
    ) {
        grants.clear();
        if self.nready == 0 {
            return;
        }
        let mut order = std::mem::take(&mut self.scratch_order);
        let mut part = std::mem::take(&mut self.scratch_part);
        self.priority_order_into(&mut order, &mut part);
        for &slot in &order {
            if grants.len() == width {
                break;
            }
            let pool = self.slots[slot].as_ref().expect("ready slot live").pool;
            if pool_budget[pool.idx()] == 0 {
                continue;
            }
            pool_budget[pool.idx()] -= 1;
            let entry = self.remove(slot);
            grants.push((slot, entry));
        }
        self.scratch_order = order;
        self.scratch_part = part;
    }

    /// The ready slots oldest first by sequence number, written into
    /// `out` (cleared first) — the whole age order of SHIFT and plain
    /// Orinoco. Live dispatch order is strictly seq-ascending (fetch
    /// numbers in order, wrong-path synthetics start above `1 << 62` and
    /// only grow, squashes remove suffixes and re-inject in seq order), so
    /// for Orinoco this seq sort equals the paper's bit-count ranking of
    /// the ready set; `Core::debug_verify_commit_invariants` checks it
    /// against an [`AgeMatrix`] rebuilt from the ROB's dispatch order.
    pub fn ready_by_seq_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.ready_bits.iter_ones());
        out.sort_unstable_by_key(|&s| self.seq_of[s]);
    }

    /// The full priority ranking of the currently-ready slots, without
    /// removing anything (test oracle for the select path).
    #[cfg(test)]
    fn priority_ranking(&mut self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut part = Vec::new();
        self.priority_order_into(&mut out, &mut part);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rob_idx: usize, seq: u64, pool: Pool) -> IqEntry {
        IqEntry {
            rob_idx,
            pool,
            critical: false,
            seq,
            srcs: [None, None],
            src_ready: [false, false],
            wait_on: [true, true],
        }
    }

    fn crit_entry(rob_idx: usize, seq: u64) -> IqEntry {
        IqEntry { critical: true, ..entry(rob_idx, seq, Pool::Int) }
    }

    fn budgets(n: usize) -> [usize; 4] {
        [n; 4]
    }

    fn select(
        iq: &mut IssueQueue,
        budget: &mut [usize; 4],
        width: usize,
    ) -> Vec<(usize, IqEntry)> {
        let mut grants = Vec::new();
        iq.select_into(budget, width, &mut grants);
        grants
    }

    fn fill(iq: &mut IssueQueue, seqs: &[u64]) -> Vec<usize> {
        seqs.iter()
            .map(|&q| iq.allocate(entry(q as usize, q, Pool::Int)).unwrap())
            .collect()
    }

    #[test]
    fn ready_tracking_with_sources() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 8);
        let mut e = entry(0, 0, Pool::Int);
        e.srcs = [Some(PhysReg(5)), None];
        iq.allocate(e).unwrap();
        assert_eq!(iq.ready_count(), 0);
        iq.writeback(PhysReg(5));
        assert_eq!(iq.ready_count(), 1);
    }

    #[test]
    fn orinoco_selects_multiple_oldest() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 16);
        fill(&mut iq, &[0, 1, 2, 3, 4]);
        let grants = select(&mut iq, &mut budgets(8), 3);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn squash_refetch_slot_reuse_does_not_duplicate_grants() {
        // A precise exception or replay squashes from the offender's own
        // seq and refetches it: the same dynamic instruction re-enters the
        // IQ with the same seq, and the LIFO free list hands back the same
        // slot — recreating a (slot, seq) pair identical to the one just
        // squashed. The select must grant it exactly once.
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 8);
        let slots = fill(&mut iq, &[0, 1, 2]);
        // Squash seqs >= 1 (youngest first, as squash_ge walks).
        iq.remove(slots[2]);
        iq.remove(slots[1]);
        // Refetch: same seqs, and the free list returns the same slots.
        assert_eq!(iq.allocate(entry(1, 1, Pool::Int)), Some(slots[1]));
        assert_eq!(iq.allocate(entry(2, 2, Pool::Int)), Some(slots[2]));
        let grants = select(&mut iq, &mut budgets(8), 8);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(iq.is_empty());
    }

    #[test]
    fn shift_matches_orinoco_schedule() {
        // The collapsible queue provides the same ideal order.
        let mut a = IssueQueue::new(SchedulerKind::Shift, 16);
        let mut b = IssueQueue::new(SchedulerKind::Orinoco, 16);
        fill(&mut a, &[0, 1, 2, 3, 4, 5]);
        fill(&mut b, &[0, 1, 2, 3, 4, 5]);
        let ga: Vec<u64> = select(&mut a, &mut budgets(2), 4).iter().map(|(_, e)| e.seq).collect();
        let gb: Vec<u64> = select(&mut b, &mut budgets(2), 4).iter().map(|(_, e)| e.seq).collect();
        assert_eq!(ga, gb);
    }

    /// Creates churn so slot order no longer matches age order: seqs
    /// 0..=3 land in slots 0..=3, seq 0 leaves, seq 4 recycles slot 0.
    /// Resulting age order: 1, 2, 3, 4; slot order: 4, 1, 2, 3.
    fn churned(kind: SchedulerKind) -> IssueQueue {
        let mut iq = IssueQueue::new(kind, 16);
        let slots = fill(&mut iq, &[0, 1, 2, 3]);
        iq.remove(slots[0]);
        let s = iq.allocate(entry(4, 4, Pool::Int)).unwrap();
        assert_eq!(s, slots[0], "expected slot recycling");
        iq
    }

    #[test]
    fn age_prioritises_only_single_oldest() {
        let mut iq = churned(SchedulerKind::Age);
        let grants = select(&mut iq, &mut budgets(8), 2);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        // The oldest (seq 1) is always first; the second grant is a random
        // pick among the remaining ready entries.
        assert_eq!(seqs[0], 1);
        assert!([2, 3, 4].contains(&seqs[1]));
    }

    #[test]
    fn mult_prioritises_oldest_per_pool() {
        let mut iq = IssueQueue::new(SchedulerKind::Mult, 16);
        iq.allocate(entry(0, 0, Pool::Int)).unwrap();
        iq.allocate(entry(1, 1, Pool::Mem)).unwrap();
        iq.allocate(entry(2, 2, Pool::Int)).unwrap();
        iq.allocate(entry(3, 3, Pool::Mem)).unwrap();
        let grants = select(&mut iq, &mut budgets(8), 2);
        let mut seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        seqs.sort_unstable();
        // The per-pool heads are seq 0 (Int) and seq 1 (Mem).
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn rand_ignores_age() {
        // RAND picks randomly: over many fresh queues the oldest must NOT
        // always win (a strict-age scheduler would always grant seq 1).
        let mut oldest_wins = 0;
        for _ in 0..32 {
            let mut iq = churned(SchedulerKind::Rand);
            let grants = select(&mut iq, &mut budgets(8), 1);
            if grants[0].1.seq == 1 {
                oldest_wins += 1;
            }
        }
        assert!(oldest_wins < 32, "RAND behaved like strict age order");
    }

    #[test]
    fn pool_budget_constrains_grants() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 16);
        iq.allocate(entry(0, 0, Pool::Mem)).unwrap();
        iq.allocate(entry(1, 1, Pool::Mem)).unwrap();
        iq.allocate(entry(2, 2, Pool::Int)).unwrap();
        let mut b = budgets(8);
        b[Pool::Mem.idx()] = 1;
        let grants = select(&mut iq, &mut b, 4);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        // Only one Mem grant (the older), Int unaffected.
        assert_eq!(seqs, vec![0, 2]);
        assert_eq!(b[Pool::Mem.idx()], 0);
    }

    #[test]
    fn width_constrains_grants() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 16);
        fill(&mut iq, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(select(&mut iq, &mut budgets(8), 2).len(), 2);
    }

    #[test]
    fn criticality_orders_across_classes() {
        let mut iq = IssueQueue::new(SchedulerKind::CriOrinoco, 16);
        iq.allocate(entry(0, 0, Pool::Int)).unwrap(); // non-critical, oldest
        iq.allocate(entry(1, 1, Pool::Int)).unwrap(); // non-critical
        iq.allocate(crit_entry(2, 2)).unwrap(); // critical, youngest
        let grants = select(&mut iq, &mut budgets(8), 2);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        // Critical first despite being youngest, then oldest non-critical.
        assert_eq!(seqs, vec![2, 0]);
    }

    #[test]
    fn cri_age_keeps_critical_head_only() {
        let mut iq = IssueQueue::new(SchedulerKind::CriAge, 32);
        let s0 = iq.allocate(crit_entry(0, 0)).unwrap();
        iq.allocate(crit_entry(1, 1)).unwrap();
        iq.allocate(crit_entry(2, 2)).unwrap();
        iq.remove(s0);
        assert_eq!(iq.allocate(crit_entry(3, 3)).unwrap(), s0);
        let grants = select(&mut iq, &mut budgets(8), 3);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        // The single oldest critical (seq 1) is age-accurate; the rest are
        // a random permutation of the remaining criticals.
        assert_eq!(seqs[0], 1);
        let mut rest = seqs[1..].to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![2, 3]);
    }

    #[test]
    fn circ_capacity_inefficiency() {
        let mut iq = IssueQueue::new(SchedulerKind::Circ, 4);
        let slots = fill(&mut iq, &[0, 1, 2, 3]);
        assert!(!iq.has_space());
        // Remove a middle entry: the gap is NOT reusable.
        iq.remove(slots[2]);
        assert!(!iq.has_space());
        // Remove the head: head advances over it, one slot reclaimed.
        iq.remove(slots[0]);
        assert!(iq.has_space());
        iq.allocate(entry(9, 9, Pool::Int)).unwrap();
        assert!(!iq.has_space());
    }

    #[test]
    fn circ_head_run_reclaims_interior_gap() {
        let mut iq = IssueQueue::new(SchedulerKind::Circ, 4);
        let slots = fill(&mut iq, &[0, 1, 2]);
        iq.remove(slots[1]); // interior gap
        iq.remove(slots[0]); // head: run advances over the gap too
        // span now covers only seq 2 -> three slots free
        for q in [10, 11, 12] {
            assert!(iq.allocate(entry(q, q as u64, Pool::Int)).is_some());
        }
        assert!(!iq.has_space());
    }

    #[test]
    fn circ_selects_in_position_order() {
        let mut iq = IssueQueue::new(SchedulerKind::Circ, 8);
        fill(&mut iq, &[5, 6, 7]);
        let grants = select(&mut iq, &mut budgets(8), 2);
        let seqs: Vec<u64> = grants.iter().map(|(_, e)| e.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
    }

    #[test]
    fn rand_reuses_freed_slots() {
        let mut iq = IssueQueue::new(SchedulerKind::Rand, 2);
        let s0 = iq.allocate(entry(0, 0, Pool::Int)).unwrap();
        iq.allocate(entry(1, 1, Pool::Int)).unwrap();
        assert!(!iq.has_space());
        iq.remove(s0);
        assert!(iq.has_space()); // unlike CIRC, gaps are immediately reusable
        assert!(iq.allocate(entry(2, 2, Pool::Int)).is_some());
    }

    #[test]
    fn not_ready_entries_never_selected() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 8);
        let mut e = entry(0, 0, Pool::Int);
        e.srcs = [Some(PhysReg(9)), None];
        iq.allocate(e).unwrap();
        iq.allocate(entry(1, 1, Pool::Int)).unwrap();
        let grants = select(&mut iq, &mut budgets(8), 4);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].1.seq, 1);
    }

    #[test]
    #[should_panic(expected = "empty IQ slot")]
    fn remove_empty_panics() {
        IssueQueue::new(SchedulerKind::Rand, 4).remove(0);
    }

    #[test]
    fn reset_matches_fresh_queue() {
        for kind in SchedulerKind::ALL {
            let mut iq = IssueQueue::new(kind, 8).with_regs(64);
            let mut e = entry(0, 0, Pool::Int);
            e.srcs = [Some(PhysReg(5)), None];
            iq.allocate(e).unwrap();
            fill(&mut iq, &[1, 2, 3]);
            let _ = select(&mut iq, &mut budgets(8), 2);
            iq.reset();
            let mut fresh = IssueQueue::new(kind, 8).with_regs(64);
            assert_eq!(iq.len(), 0);
            assert_eq!(iq.ready_count(), 0);
            // Same allocation, wakeup and grant behaviour after reset.
            for q in [10u64, 11, 12] {
                assert_eq!(
                    iq.allocate(entry(q as usize, q, Pool::Int)),
                    fresh.allocate(entry(q as usize, q, Pool::Int)),
                    "{kind:?} slot placement diverged"
                );
            }
            let ga: Vec<u64> =
                select(&mut iq, &mut budgets(8), 8).iter().map(|(_, e)| e.seq).collect();
            let gb: Vec<u64> =
                select(&mut fresh, &mut budgets(8), 8).iter().map(|(_, e)| e.seq).collect();
            assert_eq!(ga, gb, "{kind:?} grant order diverged");
        }
    }

    #[test]
    fn ready_count_stays_consistent_under_churn() {
        let mut iq = IssueQueue::new(SchedulerKind::Orinoco, 8);
        let mut e = entry(0, 0, Pool::Int);
        e.srcs = [Some(PhysReg(3)), Some(PhysReg(4))];
        let s = iq.allocate(e).unwrap();
        assert_eq!(iq.ready_count(), 0);
        iq.writeback(PhysReg(3));
        assert_eq!(iq.ready_count(), 0);
        iq.writeback(PhysReg(4));
        assert_eq!(iq.ready_count(), 1);
        // Duplicate writeback must not double-count.
        iq.writeback(PhysReg(4));
        assert_eq!(iq.ready_count(), 1);
        iq.remove(s);
        assert_eq!(iq.ready_count(), 0);
    }

    /// The seq-sort ranking of the plain Orinoco scheduler selects the
    /// same slots in the same order as the matrix bit-count ranking
    /// (CriOrinoco with no critical entries is exactly that matrix path),
    /// across random allocate/remove churn that recycles slots.
    #[test]
    fn orinoco_seq_order_matches_matrix_ranking() {
        let mut rng = 0x5EED_0123_4567_89ABu64;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut by_seq = IssueQueue::new(SchedulerKind::Orinoco, 16);
        let mut matrix = IssueQueue::new(SchedulerKind::CriOrinoco, 16);
        let mut live: Vec<usize> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..2000 {
            if !live.is_empty() && next() % 3 == 0 {
                let victim = live.swap_remove((next() % live.len() as u64) as usize);
                by_seq.remove(victim);
                matrix.remove(victim);
            } else if by_seq.has_space() {
                let e = entry(seq as usize, seq, Pool::Int);
                let sw = by_seq.allocate(e.clone()).unwrap();
                let sm = matrix.allocate(e).unwrap();
                assert_eq!(sw, sm, "free lists diverged");
                live.push(sw);
                seq += 1;
            }
            assert!(select(&mut by_seq, &mut budgets(0), usize::MAX).is_empty());
            assert!(select(&mut matrix, &mut budgets(0), usize::MAX).is_empty());
            let ow = by_seq.priority_ranking();
            let om = matrix.priority_ranking();
            assert_eq!(ow, om, "seq order diverged from matrix age ranking");
        }
    }

    /// The Orinoco select (seq sort of the ready set) grants the same
    /// slots in the same order as the select driven by the matrix ranking
    /// (CriOrinoco with no critical entries), including under pool-budget
    /// skips and partial widths.
    #[test]
    fn orinoco_select_matches_matrix_select() {
        let mut rng = 0xFACE_FEED_0BAD_F00Du64;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut by_seq = IssueQueue::new(SchedulerKind::Orinoco, 16);
        let mut matrix = IssueQueue::new(SchedulerKind::CriOrinoco, 16);
        let mut seq = 0u64;
        for round in 0..500 {
            while by_seq.has_space() && next() % 4 != 0 {
                let pool = if next() % 2 == 0 { Pool::Int } else { Pool::Mem };
                let e = entry(seq as usize, seq, pool);
                assert_eq!(
                    by_seq.allocate(e.clone()),
                    matrix.allocate(e),
                    "free lists diverged"
                );
                seq += 1;
            }
            let width = (next() % 5) as usize;
            let mut bf = budgets(2);
            if round % 3 == 0 {
                bf[Pool::Mem.idx()] = 0; // starve a pool: budget-skip path
            }
            let mut bg = bf;
            let gf: Vec<u64> =
                select(&mut by_seq, &mut bf, width).iter().map(|(_, e)| e.seq).collect();
            let gg: Vec<u64> =
                select(&mut matrix, &mut bg, width).iter().map(|(_, e)| e.seq).collect();
            assert_eq!(gf, gg, "seq-sort grants diverged from matrix path");
            assert_eq!(bf, bg, "budget consumption diverged");
        }
    }
}
