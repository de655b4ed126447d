//! Property test of the ROB's single age-order record.
//!
//! The ROB keeps one order mechanism, its `(slot, generation)` dispatch
//! deque: commit grants (with and without a depth limit), the head, the
//! in-order prefix and the squash set all come from walks of it. These
//! properties drive a [`Rob`] through random histories — plain and banked
//! allocation, completion, `SPEC` set/clear, in-order early retirement,
//! out-of-order frees, and squash of a suffix followed by re-install of
//! the same sequence numbers (which the LIFO free list puts back into the
//! same slots) — at logical capacities straddling the 64-bit word
//! boundary of the physical slot vectors. After every step each walk is
//! compared with the paper's merged [`CommitScheduler`] (driven with the
//! same dispatch/safety/free stream) and with an explicit seq model.

use orinoco_core::{Rob, RobEntry};
use orinoco_isa::{InstClass, Opcode};
use orinoco_matrix::{BitVec64, CommitScheduler};
use orinoco_util::{prop, Rng};

/// Logical capacities; the physical slot count is twice these (62, 64,
/// 66, 128 slots).
const CAPS: [usize; 4] = [31, 32, 33, 64];

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

/// What the model knows about a live slot.
#[derive(Clone, Copy)]
struct Live {
    seq: u64,
    spec: bool,
    completed: bool,
    retired: bool,
}

/// The ROB under test, the matrix scheduler and the seq model, driven in
/// lockstep.
struct Harness {
    rob: Rob,
    sched: CommitScheduler,
    model: Vec<Option<Live>>,
    next_seq: u64,
    /// Re-installs of a squashed seq that landed in the slot it left.
    same_slot_reinstalls: u64,
}

impl Harness {
    fn new(cap: usize) -> Self {
        let rob = Rob::new(cap);
        let n = rob.physical_capacity();
        Self {
            rob,
            sched: CommitScheduler::new(n),
            model: vec![None; n],
            next_seq: 0,
            same_slot_reinstalls: 0,
        }
    }

    /// Live slots oldest first, by seq.
    fn age_order(&self) -> Vec<usize> {
        let mut v: Vec<(u64, usize)> = self
            .model
            .iter()
            .enumerate()
            .filter_map(|(s, l)| l.map(|l| (l.seq, s)))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, s)| s).collect()
    }

    fn live_slots(&self) -> Vec<usize> {
        (0..self.model.len()).filter(|&s| self.model[s].is_some()).collect()
    }

    fn install(&mut self, rng: &mut Rng, seq: u64) -> Option<usize> {
        let spec = rng.gen::<bool>();
        let slot = if rng.gen_range(0..4u32) == 0 {
            let nbanks = rng.gen_range(1..5usize);
            let used: Vec<bool> = (0..nbanks).map(|_| rng.gen_range(0..3u32) == 0).collect();
            self.rob.alloc_banked(mk(seq), spec, &used).ok()?
        } else {
            self.rob.alloc(mk(seq), spec)?
        };
        assert!(self.model[slot].is_none(), "allocated a live slot");
        self.sched.dispatch(slot, spec);
        self.model[slot] = Some(Live { seq, spec, completed: false, retired: false });
        Some(slot)
    }

    fn free(&mut self, slot: usize) {
        let e = self.rob.free(slot);
        assert_eq!(e.seq, self.model[slot].expect("free of a model-dead slot").seq);
        self.sched.free(slot);
        self.model[slot] = None;
    }

    /// One random step of the history.
    fn step(&mut self, rng: &mut Rng) {
        let live = self.live_slots();
        let pick = |rng: &mut Rng| live[rng.gen_range(0..live.len())];
        match rng.gen_range(0..16u32) {
            0..=4 => {
                let seq = self.next_seq;
                if self.install(rng, seq).is_some() {
                    self.next_seq += 1;
                }
            }
            5..=7 if !live.is_empty() => {
                let s = pick(rng);
                self.rob.mark_completed(s);
                self.model[s].as_mut().unwrap().completed = true;
            }
            8..=9 if !live.is_empty() => {
                let s = pick(rng);
                self.rob.mark_safe(s);
                self.sched.mark_safe(s);
                self.model[s].as_mut().unwrap().spec = false;
            }
            10 if !live.is_empty() => {
                let s = pick(rng);
                self.rob.mark_speculative(s);
                self.sched.mark_speculative(s);
                self.model[s].as_mut().unwrap().spec = true;
            }
            11 => {
                // In-order early retirement of the head (post-commit
                // execution): zombies always form the oldest prefix.
                if let Some(h) = self.rob.head() {
                    self.rob.retire_early(h);
                    self.model[h].as_mut().unwrap().retired = true;
                }
            }
            12..=13 if !live.is_empty() => {
                // Out-of-order free: a commit anywhere, or a zombie drain.
                let s = pick(rng);
                self.free(s);
            }
            14..=15 => self.squash_and_refetch(rng),
            _ => {}
        }
    }

    /// Squashes every live entry from a random non-retired seq on,
    /// youngest first, then re-installs a prefix of the same seqs.
    fn squash_and_refetch(&mut self, rng: &mut Rng) {
        let candidates: Vec<u64> = self
            .model
            .iter()
            .flatten()
            .filter(|l| !l.retired)
            .map(|l| l.seq)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let from = candidates[rng.gen_range(0..candidates.len())];
        let mut squash = Vec::new();
        self.rob.from_seq_into(from, &mut squash);
        let mut left: Vec<(u64, usize)> = Vec::new();
        for &s in &squash {
            left.push((self.model[s].unwrap().seq, s));
            self.free(s);
        }
        left.sort_unstable();
        let refetch = rng.gen_range(0..left.len() + 1);
        self.next_seq = from;
        for &(seq, old_slot) in &left[..refetch] {
            let Some(slot) = self.install(rng, seq) else { break };
            self.same_slot_reinstalls += u64::from(slot == old_slot);
            self.next_seq = seq + 1;
        }
    }

    /// Compares every walk of the deque with the matrix and the model.
    fn check(&mut self, rng: &mut Rng) {
        let n = self.model.len();
        let order = self.age_order();
        let not_retired: Vec<usize> =
            order.iter().copied().filter(|&s| !self.model[s].unwrap().retired).collect();
        let completed = BitVec64::from_indices(
            n,
            order.iter().copied().filter(|&s| self.model[s].unwrap().completed),
        );

        let width = rng.gen_range(1..9usize);
        let mut got = Vec::new();
        let mut want = Vec::new();
        let mut candidates = BitVec64::new(n);
        self.rob.grants_orinoco_into(width, None, &mut got);
        self.sched.commit_grants_into(&completed, width, &mut candidates, &mut want);
        assert_eq!(got, want, "unlimited grants, width {width}");
        // The seq model: completed, own SPEC clear, no older live SPEC.
        let model_grants: Vec<usize> = order
            .iter()
            .copied()
            .take_while(|&s| !self.model[s].unwrap().spec)
            .filter(|&s| self.model[s].unwrap().completed)
            .take(width)
            .collect();
        assert_eq!(got, model_grants, "unlimited grants vs seq model");
        assert_eq!(self.rob.any_grant_orinoco(), self.sched.any_commit_grant(&completed));

        let depth = rng.gen_range(0..n / 2);
        let window = BitVec64::from_indices(
            n,
            not_retired.iter().copied().take(depth).filter(|&s| completed.get(s)),
        );
        self.rob.grants_orinoco_into(width, Some(depth), &mut got);
        self.sched.commit_grants_into(&window, width, &mut candidates, &mut want);
        assert_eq!(got, want, "depth-{depth} grants, width {width}");

        let k = rng.gen_range(0..n);
        self.rob.in_order_into(k, &mut got);
        assert_eq!(got, not_retired.iter().copied().take(k).collect::<Vec<_>>(), "in_order({k})");
        self.rob.live_in_order_into(&mut got);
        assert_eq!(got, order, "live order");
        assert_eq!(self.rob.head(), not_retired.first().copied(), "head");

        if let Some(&s) = not_retired.get(rng.gen_range(0..not_retired.len().max(1))) {
            let from = self.model[s].unwrap().seq;
            self.rob.from_seq_into(from, &mut got);
            let mut want_squash: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&o| self.model[o].unwrap().seq >= from)
                .collect();
            want_squash.reverse();
            assert_eq!(got, want_squash, "from_seq({from})");
        }
        assert_eq!(self.rob.len(), not_retired.len());
        assert_eq!(self.rob.zombie_count(), order.len() - not_retired.len());
    }
}

/// Every deque walk of the ROB equals the commit matrix and the seq model
/// after every step of random histories at each capacity.
#[test]
fn rob_walks_match_commit_matrix_and_seq_model() {
    let mut reinstalls = 0u64;
    prop::forall("rob_order_walks", 0x0B0B, 64, |rng| {
        for cap in CAPS {
            let mut h = Harness::new(cap);
            for _ in 0..rng.gen_range(1..8 * cap) {
                h.step(rng);
                h.check(rng);
            }
            reinstalls += h.same_slot_reinstalls;
        }
    });
    assert!(reinstalls > 0, "no squashed seq was re-installed into its old slot");
}
