//! The non-collapsible reorder buffer: free-list allocation, the `SPEC`
//! vector and dispatch-order walk that grant unordered commit (§3.2), and
//! the in-order view needed by the baseline commit policies.

use crate::rename::PhysReg;
use orinoco_isa::{ArchReg, DynInst, InstClass, Opcode};
use orinoco_matrix::BitVec64;
use std::collections::VecDeque;

/// A ROB entry: the instruction's rename state, queue locations and
/// execution status.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Dynamic sequence number (wrong-path instructions get their own).
    pub seq: u64,
    /// Byte PC.
    pub pc: u64,
    /// Operation.
    pub op: Opcode,
    /// Functional-unit class.
    pub class: InstClass,
    /// Fetched down a mispredicted path (will be squashed, never commits).
    pub wrong_path: bool,
    /// Destination rename: `(arch, new phys, previous phys)`.
    pub dst: Option<(ArchReg, PhysReg, PhysReg)>,
    /// Renamed sources.
    pub srcs: [Option<PhysReg>; 2],
    /// Operands have been read (consumer counters decremented).
    pub srcs_read: bool,
    /// Issue-queue location while waiting to issue: `(queue, slot)` —
    /// queue 0 is the unified IQ; split-IQ cores use one queue per pool.
    pub iq_slot: Option<(usize, usize)>,
    /// LQ slot for loads.
    pub lq_slot: Option<usize>,
    /// SQ slot for stores.
    pub sq_slot: Option<usize>,
    /// Issued from the IQ.
    pub issued: bool,
    /// Address generation finished (memory ops).
    pub agu_done: bool,
    /// Store data operand is available (stores complete when both the
    /// address resolved and the data arrived; the AGU no longer waits for
    /// the data register).
    pub store_data_ready: bool,
    /// Execution finished (loads: data returned).
    pub completed: bool,
    /// Branch outcome mismatch detected at fetch; realised at resolution.
    pub mispredicted: bool,
    /// Injected page fault (never becomes safe; handled as a precise
    /// exception when it reaches the oldest position).
    pub fault: bool,
    /// Effective address (oracle) for loads/stores.
    pub mem_addr: Option<u64>,
    /// Oracle next PC (branch redirect target).
    pub next_pc: u64,
    /// Oracle direction for branches.
    pub taken: bool,
    /// Criticality tag at dispatch.
    pub critical: bool,
    /// Left the logical ROB while still executing (post-commit zombie).
    pub retired: bool,
    /// Resources released early but ROB entry still held (the
    /// "SPEC w/o ROB" ablation, where Cherry reserves ROB entries).
    pub released: bool,
    /// The original dynamic instruction, for re-injection after an
    /// exception or replay squash (`None` only in unit tests).
    pub dyn_inst: Option<DynInst>,
}

/// The reorder buffer.
///
/// Physical slot storage is twice the logical capacity: policies with
/// post-commit execution (VB/BR/ECL) *retire* instructions early — the
/// logical entry is released for dispatch while the in-flight "zombie"
/// keeps its physical slot until execution completes.
///
/// Age order has exactly one record, the dispatch deque `order`. Live
/// dispatch order is strictly seq-ascending (fetch numbers in order,
/// wrong-path synthetics start above `1 << 62` and only grow, squashes
/// remove suffixes and re-inject in seq order), so walking the deque
/// oldest→youngest visits the entries exactly in the order the paper's
/// age matrix ranks them. The merged age-matrix/`SPEC` commit scheduler
/// of §3.2 is rebuilt from this deque as a release-mode oracle by
/// [`crate::Core::debug_verify_commit_invariants`].
#[derive(Clone, Debug)]
pub struct Rob {
    slots: Vec<Option<RobEntry>>,
    free: Vec<usize>,
    /// The `SPEC` vector: the occupant may still misspeculate or fault.
    spec: BitVec64,
    completed: BitVec64,
    /// Program-order view (dispatch order) as `(slot, generation)`
    /// pairs, holding every live entry — retired zombies included; a pair
    /// is stale — skipped lazily — once the slot was freed or recycled.
    /// Staleness is a generation compare rather than a seq compare: a
    /// squash + refetch re-installs the *same* dynamic instruction (same
    /// seq) and can land in the *same* slot, which would make an identical
    /// `(slot, seq)` pair ambiguous with its stale twin — generations
    /// never repeat for a slot.
    order: VecDeque<(usize, u64)>,
    /// Per-slot generation counters (bumped on free) to invalidate stale
    /// events and stale `order` pairs.
    gens: Vec<u64>,
    /// Compact retired-zombie bits, mirroring `RobEntry::retired`.
    retired_bits: BitVec64,
    logical_cap: usize,
    logical_used: usize,
}

impl Rob {
    /// Creates a ROB with `cap` (logical) entries.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let physical = cap * 2;
        Self {
            slots: vec![None; physical],
            free: (0..physical).rev().collect(),
            spec: BitVec64::new(physical),
            completed: BitVec64::new(physical),
            // 2x the physical slot count: stale pairs accumulate between
            // lazy compactions (see `install`), and the headroom keeps
            // pushes amortised allocation-free.
            order: VecDeque::with_capacity(physical * 2),
            gens: vec![0; physical],
            retired_bits: BitVec64::new(physical),
            logical_cap: cap,
            logical_used: 0,
        }
    }

    /// Logical capacity in entries (the Table 1 ROB size).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.logical_cap
    }

    /// Physical slot count (twice the logical capacity; see [`Rob`]).
    #[must_use]
    pub fn physical_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Logically occupied entries (dispatched, not yet retired).
    #[must_use]
    pub fn len(&self) -> usize {
        self.logical_used
    }

    /// `true` when no live entries remain, including zombies.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }

    /// Free logical entries.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.logical_cap - self.logical_used
    }

    /// Retired-but-executing zombies (post-commit execution occupancy).
    #[must_use]
    pub fn zombie_count(&self) -> usize {
        let physical_used = self.slots.len() - self.free.len();
        physical_used - self.logical_used
    }

    /// Generation of `idx`, for event tagging.
    #[must_use]
    pub fn generation(&self, idx: usize) -> u64 {
        self.gens[idx]
    }

    /// `true` if `(idx, gen)` still names the same instruction.
    #[must_use]
    pub fn is_live(&self, idx: usize, gen: u64) -> bool {
        self.slots[idx].is_some() && self.gens[idx] == gen
    }

    /// Allocates an entry (random allocation into any free slot). Returns
    /// the slot, or `None` when the logical capacity is exhausted.
    /// `speculative` instructions set their `SPEC` bit.
    pub fn alloc(&mut self, entry: RobEntry, speculative: bool) -> Option<usize> {
        if self.logical_used == self.logical_cap {
            return None;
        }
        let idx = self.free.pop().expect("zombie slack exhausted");
        self.install(idx, entry, speculative);
        Some(idx)
    }

    /// The horizontal bank (of `nbanks`) that physical slot `idx` belongs
    /// to (§4.3: the age-matrix SRAM is split into `dispatch width` banks).
    #[must_use]
    pub fn bank_of(&self, idx: usize, nbanks: usize) -> usize {
        idx * nbanks / self.slots.len()
    }

    /// Allocates like [`Rob::alloc`] but honouring the single-write-port-
    /// per-bank constraint: the chosen slot's bank must not be in
    /// `used_banks`. Returns the entry back (`Err`) on logical exhaustion
    /// **or** when every free slot lies in an already-written bank (a
    /// dispatch port conflict), so the caller can stash it without cloning.
    // Returning the entry by value on failure is the point: the caller
    // stashes it without a clone, so the wide Err variant stays.
    #[allow(clippy::result_large_err)]
    pub fn alloc_banked(
        &mut self,
        entry: RobEntry,
        speculative: bool,
        used_banks: &[bool],
    ) -> Result<usize, RobEntry> {
        if self.logical_used == self.logical_cap {
            return Err(entry);
        }
        let nbanks = used_banks.len();
        // Prefer the emptiest eligible bank (load balancing, §4.3);
        // approximation: latest-freed slot in any eligible bank.
        let Some(pos) = self
            .free
            .iter()
            .rposition(|&i| !used_banks[self.bank_of(i, nbanks)])
        else {
            return Err(entry);
        };
        let idx = self.free.remove(pos);
        self.install(idx, entry, speculative);
        Ok(idx)
    }

    fn install(&mut self, idx: usize, entry: RobEntry, speculative: bool) {
        self.logical_used += 1;
        self.spec.assign(idx, speculative);
        self.completed.clear(idx);
        // Lazily compact stale pairs once they dominate the deque; live
        // pairs never exceed the physical slot count, so after compaction
        // the push below always fits without reallocating.
        if self.order.len() >= self.slots.len() * 2 {
            let (slots, gens) = (&self.slots, &self.gens);
            self.order.retain(|&(i, g)| slots[i].is_some() && gens[i] == g);
        }
        self.order.push_back((idx, self.gens[idx]));
        self.retired_bits.clear(idx);
        self.slots[idx] = Some(entry);
    }

    /// Entry accessor.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[must_use]
    pub fn entry(&self, idx: usize) -> &RobEntry {
        self.slots[idx].as_ref().unwrap_or_else(|| panic!("empty ROB slot {idx}"))
    }

    /// Mutable entry accessor.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn entry_mut(&mut self, idx: usize) -> &mut RobEntry {
        self.slots[idx].as_mut().unwrap_or_else(|| panic!("empty ROB slot {idx}"))
    }

    /// `Some(entry)` if the slot is occupied.
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&RobEntry> {
        self.slots[idx].as_ref()
    }

    /// Marks execution complete.
    pub fn mark_completed(&mut self, idx: usize) {
        self.entry_mut(idx).completed = true;
        self.completed.set(idx);
    }

    /// Clears the `SPEC` bit (the instruction can no longer misspeculate
    /// or fault).
    pub fn mark_safe(&mut self, idx: usize) {
        self.spec.clear(idx);
    }

    /// Re-sets the `SPEC` bit (replay).
    pub fn mark_speculative(&mut self, idx: usize) {
        self.spec.set(idx);
    }

    /// `true` if the instruction's own `SPEC` bit is clear.
    #[must_use]
    pub fn is_safe_self(&self, idx: usize) -> bool {
        !self.spec.get(idx)
    }

    /// `true` if at least one instruction would be granted commit this
    /// cycle — the allocation-free stall test (equivalent to a non-empty
    /// [`Rob::grants_orinoco_into`] at width 1 without a depth limit): the
    /// walk finds a live completed entry before the oldest live
    /// speculative one.
    #[must_use]
    pub fn any_grant_orinoco(&self) -> bool {
        for &(i, g) in &self.order {
            if self.gens[i] != g {
                continue;
            }
            if self.spec.get(i) {
                return false;
            }
            if self.completed.get(i) {
                return true;
            }
        }
        false
    }

    /// The out-of-order commit grants of the Orinoco policy, written into
    /// the caller-owned `out` (cleared first), oldest first: up to `width`
    /// completed instructions whose own `SPEC` bit is clear and which no
    /// older live speculative instruction precedes. With `depth` set, only
    /// the `depth` oldest live, non-retired entries are candidates — the
    /// "limited commit depth" ablation of §6.2 (how far the core can scan
    /// to find instructions to commit out of order).
    ///
    /// One walk of the dispatch deque, oldest→youngest, stopping at the
    /// first live speculative entry: the grant condition of the merged
    /// scheduler (completed ∧ ¬SPEC ∧ `row & SPEC == 0`) is monotone in
    /// age — the oldest live speculative entry blocks every younger entry,
    /// and nothing older than it is blocked. The walk usually ends within
    /// a few entries of the head, and only the compact side arrays
    /// (`gens`, bit vectors) are read: the wide `RobEntry` slots would
    /// cost a cache miss per step.
    pub fn grants_orinoco_into(&self, width: usize, depth: Option<usize>, out: &mut Vec<usize>) {
        out.clear();
        if width == 0 {
            return;
        }
        let mut walked = 0usize;
        for &(i, g) in &self.order {
            if self.gens[i] != g {
                continue; // stale pair: the slot was freed or recycled
            }
            if self.spec.get(i) {
                break;
            }
            if let Some(d) = depth {
                // The depth window covers the `d` oldest live, non-retired
                // entries; retired zombies sit outside it but still block
                // via their SPEC bit (checked above).
                if self.retired_bits.get(i) {
                    continue;
                }
                if walked == d {
                    break;
                }
                walked += 1;
            }
            if self.completed.get(i) {
                out.push(i);
                if out.len() == width {
                    break;
                }
            }
        }
    }

    /// The oldest live, non-retired instruction (the "head" of the logical
    /// FIFO). Stale pairs at the front of the deque are popped on the way;
    /// retired zombies are skipped but stay in the deque, where their
    /// `SPEC` bits still block younger commit grants.
    #[must_use]
    pub fn head(&mut self) -> Option<usize> {
        while let Some(&(i, g)) = self.order.front() {
            if self.gens[i] == g {
                break;
            }
            self.order.pop_front();
        }
        self.order
            .iter()
            .find(|&&(i, g)| self.gens[i] == g && !self.retired_bits.get(i))
            .map(|&(i, _)| i)
    }

    /// The first `k` live, non-retired entries in program order, written
    /// into the caller-owned `out` (cleared first).
    pub fn in_order_into(&self, k: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.order
                .iter()
                .filter(|&&(i, g)| self.gens[i] == g && !self.retired_bits.get(i))
                .map(|&(i, _)| i)
                .take(k),
        );
    }

    /// Every live entry in program order, retired zombies included,
    /// written into `out` (cleared first) — the dispatch order the oracle
    /// replays into the paper's matrices.
    pub fn live_in_order_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.order.iter().filter(|&&(i, g)| self.gens[i] == g).map(|&(i, _)| i));
    }

    /// Live entries with sequence `>= from`, youngest first — the
    /// inclusive squash set used for exceptions and replay traps, written
    /// into the caller-owned `out` (cleared first). Retired zombies are
    /// always older than any squash point (commit is non-speculative), so
    /// they never appear here.
    pub fn from_seq_into(&self, from: u64, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.order
                .iter()
                .filter(|&&(i, g)| self.gens[i] == g && self.entry(i).seq >= from)
                .map(|&(i, _)| i),
        );
        out.sort_unstable_by_key(|&i| std::cmp::Reverse(self.entry(i).seq));
        for &i in out.iter() {
            debug_assert!(!self.retired_bits.get(i), "squash of retired zombie");
        }
    }

    /// Retires an instruction early (post-commit execution): its logical
    /// ROB entry is released for dispatch while the physical slot lives on
    /// until execution completes.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty or already retired.
    pub fn retire_early(&mut self, idx: usize) {
        let e = self.entry_mut(idx);
        assert!(!e.retired, "double retire of slot {idx}");
        e.retired = true;
        self.retired_bits.set(idx);
        self.logical_used -= 1;
    }

    /// Frees a committed or squashed entry, bumping its generation so
    /// in-flight events for it become stale.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn free(&mut self, idx: usize) -> RobEntry {
        let entry = self.slots[idx]
            .take()
            .unwrap_or_else(|| panic!("free of empty ROB slot {idx}"));
        if !entry.retired {
            self.logical_used -= 1;
        }
        self.spec.clear(idx);
        self.completed.clear(idx);
        self.gens[idx] += 1;
        self.retired_bits.clear(idx);
        self.free.push(idx);
        entry
    }

    /// Restores the freshly-constructed state in place, keeping every
    /// allocation (core reset path). The free list is rebuilt in pristine
    /// pop order so slot placement — and therefore every downstream
    /// random-allocation decision — matches a newly built ROB exactly.
    pub fn reset(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.gens.fill(0);
        self.spec.clear_all();
        self.completed.clear_all();
        self.retired_bits.clear_all();
        self.order.clear();
        self.free.clear();
        self.free.extend((0..self.slots.len()).rev());
        self.logical_used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orinoco_isa::InstClass;

    fn mk(seq: u64) -> RobEntry {
        RobEntry {
            seq,
            pc: seq * 4,
            op: Opcode::Add,
            class: InstClass::IntAlu,
            wrong_path: false,
            dst: None,
            srcs: [None, None],
            srcs_read: false,
            iq_slot: None,
            lq_slot: None,
            sq_slot: None,
            issued: false,
            agu_done: false,
            store_data_ready: false,
            completed: false,
            mispredicted: false,
            fault: false,
            mem_addr: None,
            next_pc: seq * 4 + 4,
            taken: false,
            critical: false,
            retired: false,
            released: false,
            dyn_inst: None,
        }
    }

    fn grants(rob: &Rob, width: usize) -> Vec<usize> {
        let mut out = Vec::new();
        rob.grants_orinoco_into(width, None, &mut out);
        out
    }

    #[test]
    fn alloc_and_head_in_program_order() {
        let mut rob = Rob::new(8);
        let a = rob.alloc(mk(0), false).unwrap();
        let b = rob.alloc(mk(1), false).unwrap();
        assert_eq!(rob.head(), Some(a));
        rob.free(a);
        assert_eq!(rob.head(), Some(b));
    }

    #[test]
    fn orinoco_grants_pass_stalled_head() {
        let mut rob = Rob::new(8);
        let a = rob.alloc(mk(0), false).unwrap(); // long-latency, incomplete
        let b = rob.alloc(mk(1), false).unwrap();
        rob.mark_completed(b);
        assert_eq!(grants(&rob, 4), vec![b]);
        let _ = a;
    }

    #[test]
    fn spec_bit_blocks_younger_grants() {
        let mut rob = Rob::new(8);
        let br = rob.alloc(mk(0), true).unwrap(); // unresolved branch
        let c = rob.alloc(mk(1), false).unwrap();
        rob.mark_completed(c);
        assert!(grants(&rob, 4).is_empty());
        assert!(!rob.any_grant_orinoco());
        rob.mark_safe(br);
        assert_eq!(grants(&rob, 4), vec![c]);
        assert!(rob.any_grant_orinoco());
    }

    #[test]
    fn generation_invalidates_stale_events() {
        let mut rob = Rob::new(4);
        let a = rob.alloc(mk(0), false).unwrap();
        let g = rob.generation(a);
        assert!(rob.is_live(a, g));
        rob.free(a);
        assert!(!rob.is_live(a, g));
        let a2 = rob.alloc(mk(1), false).unwrap();
        assert_eq!(a2, a); // slot recycled
        assert!(!rob.is_live(a, g)); // old generation still stale
        assert!(rob.is_live(a2, rob.generation(a2)));
    }

    #[test]
    fn from_seq_is_youngest_first() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            rob.alloc(mk(s), false).unwrap();
        }
        let mut squash = Vec::new();
        rob.from_seq_into(2, &mut squash);
        let seqs: Vec<u64> = squash.iter().map(|&i| rob.entry(i).seq).collect();
        assert_eq!(seqs, vec![4, 3, 2]);
    }

    #[test]
    fn in_order_skips_freed() {
        let mut rob = Rob::new(8);
        let a = rob.alloc(mk(0), false).unwrap();
        let b = rob.alloc(mk(1), false).unwrap();
        let c = rob.alloc(mk(2), false).unwrap();
        rob.free(b);
        let mut order = Vec::new();
        rob.in_order_into(8, &mut order);
        assert_eq!(order, vec![a, c]);
    }

    #[test]
    fn full_rob_rejects() {
        let mut rob = Rob::new(2);
        rob.alloc(mk(0), false).unwrap();
        rob.alloc(mk(1), false).unwrap();
        assert!(rob.alloc(mk(2), false).is_none());
        assert_eq!(rob.free_count(), 0);
    }

    #[test]
    fn early_retire_releases_logical_capacity() {
        let mut rob = Rob::new(2);
        let a = rob.alloc(mk(0), false).unwrap(); // incomplete (post-commit exec)
        let b = rob.alloc(mk(1), false).unwrap();
        assert!(rob.alloc(mk(2), false).is_none());
        rob.retire_early(a);
        assert_eq!(rob.free_count(), 1);
        // Zombie no longer blocks the in-order head...
        assert_eq!(rob.head(), Some(b));
        // ...and dispatch proceeds while the zombie still executes.
        let c = rob.alloc(mk(2), false).unwrap();
        assert_ne!(c, a, "zombie slot must not be reused");
        // Completion finally frees the physical slot.
        rob.free(a);
        assert_eq!(rob.len(), 2);
        let _ = b;
    }

    #[test]
    fn speculative_zombie_leaves_head_but_blocks_grants() {
        // BR commit retires an unresolved branch early: it leaves the
        // logical FIFO, yet its SPEC bit still blocks younger grants.
        let mut rob = Rob::new(4);
        let br = rob.alloc(mk(0), true).unwrap();
        let c = rob.alloc(mk(1), false).unwrap();
        rob.mark_completed(c);
        rob.retire_early(br);
        assert_eq!(rob.head(), Some(c));
        assert!(grants(&rob, 4).is_empty());
        assert!(!rob.any_grant_orinoco());
        rob.mark_safe(br);
        assert_eq!(grants(&rob, 4), vec![c]);
    }

    #[test]
    #[should_panic(expected = "double retire")]
    fn double_retire_panics() {
        let mut rob = Rob::new(2);
        let a = rob.alloc(mk(0), false).unwrap();
        rob.retire_early(a);
        rob.retire_early(a);
    }

    #[test]
    fn replay_restores_spec_bit() {
        let mut rob = Rob::new(4);
        let l = rob.alloc(mk(0), true).unwrap();
        rob.mark_safe(l);
        assert!(rob.is_safe_self(l));
        rob.mark_speculative(l);
        assert!(!rob.is_safe_self(l));
    }
}
