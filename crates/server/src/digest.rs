//! The commit digest: an order-sensitive fingerprint of a simulation's
//! commit-event stream, folded field by field with no text formatting.
//!
//! Every [`CommitEvent`] contributes exactly 19 `u64` words to word-form
//! FNV-1a ([`orinoco_util::fnv::word`]), in this fixed order:
//!
//! | slot | word |
//! |---|---|
//! | 0, 1 | `seq`, `cycle` |
//! | 2, 3 | `oldest_live_seq`: tag (0 = `None`, 1 = `Some`), value (0 if `None`) |
//! | 4–6 | `dyn_inst.seq`, `dyn_inst.index`, `dyn_inst.pc` |
//! | 7, 8 | `op`, `class` as their enum discriminants |
//! | 9–14 | `dst`, `src1`, `src2`: tag, folded register index (0 if `None`) each |
//! | 15, 16 | `mem_addr`: tag, value (0 if `None`) |
//! | 17, 18 | `taken` (0/1), `next_pc` |
//!
//! Fixed width per event and an explicit tag for every `Option` make the
//! word sequence an injective encoding of the event sequence, so any
//! single-field change — `Some(0)` versus `None` included — and any
//! reordering changes the folded input; the fingerprint is then as strong
//! as 64-bit FNV-1a over that input. A digest is a running value, so a
//! stream can be folded in chunks as it is drained from the core (see
//! `Core::drain_commit_trace_into`) and the result is independent of
//! where the chunks fall.

use orinoco_core::CommitEvent;
use orinoco_isa::{ArchReg, DynInst};
use orinoco_util::fnv;

/// Words folded per commit event (the table in the module docs).
const WORDS_PER_EVENT: usize = 19;

/// A running commit digest. Starts at the FNV-1a offset basis; the
/// digest of an empty stream is therefore [`fnv::OFFSET`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitDigest(u64);

impl Default for CommitDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitDigest {
    /// The digest of the empty stream.
    #[must_use]
    pub fn new() -> Self {
        Self(fnv::OFFSET)
    }

    /// Folds the next event of the stream.
    pub fn push(&mut self, ev: &CommitEvent) {
        // Exhaustive destructuring: a field added to either type fails to
        // compile here until the encoding covers it.
        let CommitEvent {
            seq,
            cycle,
            oldest_live_seq,
            dyn_inst:
                DynInst {
                    seq: inst_seq,
                    index,
                    pc,
                    op,
                    class,
                    dst,
                    src1,
                    src2,
                    mem_addr,
                    taken,
                    next_pc,
                },
        } = ev;
        let reg = |r: &Option<ArchReg>| tagged(r.map(|r| r.index() as u64));
        let [olt, olv] = tagged(*oldest_live_seq);
        let [dt, dv] = reg(dst);
        let [s1t, s1v] = reg(src1);
        let [s2t, s2v] = reg(src2);
        let [mt, mv] = tagged(*mem_addr);
        let words: [u64; WORDS_PER_EVENT] = [
            *seq,
            *cycle,
            olt,
            olv,
            *inst_seq,
            *index as u64,
            *pc,
            *op as u64,
            *class as u64,
            dt,
            dv,
            s1t,
            s1v,
            s2t,
            s2v,
            mt,
            mv,
            u64::from(*taken),
            *next_pc,
        ];
        self.0 = words.iter().fold(self.0, |h, &w| fnv::word(h, w));
    }

    /// The fingerprint of the events pushed so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// An `Option` as a (tag, value) word pair; `None` is `[0, 0]`.
fn tagged(v: Option<u64>) -> [u64; 2] {
    match v {
        Some(x) => [1, x],
        None => [0, 0],
    }
}
