//! Word-parallel path property tests at word-boundary capacities.
//!
//! The hot select/grant paths walk masked `u64` words (tzcnt candidate
//! scans, early-exiting rank reads), and every one of them keeps a scalar
//! `*_ref` oracle. Tail-masking and word-straddling bugs live exactly at
//! the 64-bit boundary, so these properties drive capacities 63/64/65/128
//! with randomized dispatch/free/squash histories — fragmented valid
//! sets, holes in every word — and demand the word-parallel outputs equal
//! the scalar oracles (and an explicit sequence-number model) bit for bit.

use orinoco_matrix::{AgeMatrix, BitVec64, CommitScheduler};
use orinoco_util::{prop, Rng};

/// Capacities straddling the word boundary plus the two-word case.
const CAPS: [usize; 4] = [63, 64, 65, 128];

/// Sequence-number model of a non-collapsible queue: `seq[slot]` is the
/// dispatch timestamp of the live instruction in `slot`.
struct SeqModel {
    seq: Vec<Option<u64>>,
    next: u64,
}

impl SeqModel {
    fn new(n: usize) -> Self {
        Self { seq: vec![None; n], next: 0 }
    }
    fn live(&self, slot: usize) -> bool {
        self.seq[slot].is_some()
    }
    /// Live slots in age (dispatch) order, oldest first.
    fn age_order(&self) -> Vec<usize> {
        let mut v: Vec<(u64, usize)> =
            self.seq.iter().enumerate().filter_map(|(s, q)| q.map(|q| (q, s))).collect();
        v.sort_unstable();
        v.into_iter().map(|(_, s)| s).collect()
    }
}

/// Drives `age` and the model through a random dispatch/free/squash
/// history. A squash frees every live entry younger than a random
/// survivor — the wrong-path flush shape that fragments the valid set.
fn random_history(rng: &mut Rng, n: usize) -> (AgeMatrix, SeqModel) {
    let mut age = AgeMatrix::new(n);
    let mut model = SeqModel::new(n);
    for _ in 0..rng.gen_range(1..3 * n) {
        match rng.gen_range(0..10u32) {
            // Dispatch into a random free slot (weighted to keep occupancy up).
            0..=5 => {
                let slot = rng.gen_range(0..n);
                if !model.live(slot) {
                    age.dispatch(slot);
                    model.seq[slot] = Some(model.next);
                    model.next += 1;
                }
            }
            // Free a random live slot (unordered commit).
            6..=8 => {
                let slot = rng.gen_range(0..n);
                if model.live(slot) {
                    age.free(slot);
                    model.seq[slot] = None;
                }
            }
            // Squash everything younger than a random live entry.
            _ => {
                let live = model.age_order();
                if live.is_empty() {
                    continue;
                }
                let pivot = model.seq[live[rng.gen_range(0..live.len())]].unwrap();
                for slot in 0..n {
                    if model.seq[slot].is_some_and(|q| q > pivot) {
                        age.free(slot);
                        model.seq[slot] = None;
                    }
                }
            }
        }
    }
    (age, model)
}

/// A random request vector over the capacity.
fn random_request(rng: &mut Rng, n: usize) -> BitVec64 {
    BitVec64::from_indices(n, (0..n).filter(|_| rng.gen::<bool>()))
}

/// `select_oldest_into`, `grant_mask_into` and `select_single_oldest`
/// equal their scalar `*_ref` oracles and the sequence-number model at
/// every boundary capacity.
#[test]
fn word_parallel_selects_match_oracles_at_boundaries() {
    prop::check("wordpar_select_boundaries", 0x30D0, |rng| {
        for n in CAPS {
            let (age, model) = random_history(rng, n);
            let req = random_request(rng, n);
            let width = rng.gen_range(0..10usize);

            let mut got = Vec::new();
            age.select_oldest_into(&req, width, &mut got);
            let mut reference = Vec::new();
            age.select_oldest_into_ref(&req, width, &mut reference);
            assert_eq!(got, reference, "n={n} width={width}");
            // And both equal the explicit timestamp model.
            let want: Vec<usize> = model
                .age_order()
                .into_iter()
                .filter(|&s| req.get(s))
                .take(width)
                .collect();
            assert_eq!(got, want, "n={n} width={width}");

            let mut mask = BitVec64::new(n);
            age.grant_mask_into(&req, width, &mut mask);
            let mut sorted = want.clone();
            sorted.sort_unstable();
            assert_eq!(mask.iter_ones().collect::<Vec<_>>(), sorted, "n={n} width={width}");
            reference.sort_unstable();
            assert_eq!(mask.iter_ones().collect::<Vec<_>>(), reference, "n={n} width={width}");

            assert_eq!(
                age.select_single_oldest(&req),
                age.select_single_oldest_ref(&req),
                "n={n}"
            );
            let oldest = model.age_order().into_iter().find(|&s| req.get(s));
            assert_eq!(age.select_single_oldest(&req), oldest, "n={n}");
        }
    });
}

/// Commit-scheduler word scans (`commit_grants_into`, `any_commit_grant`,
/// `commit_grants_in_order_into`) equal the sequence-number model under
/// random speculation/resolution/completion at boundary capacities.
#[test]
fn word_parallel_commit_grants_match_model_at_boundaries() {
    prop::check("wordpar_commit_boundaries", 0x30D1, |rng| {
        for n in CAPS {
            let mut rob = CommitScheduler::new(n);
            let mut model = SeqModel::new(n);
            let mut spec = vec![false; n];
            for _ in 0..rng.gen_range(1..3 * n) {
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let slot = rng.gen_range(0..n);
                        if !model.live(slot) {
                            let speculative = rng.gen::<bool>();
                            rob.dispatch(slot, speculative);
                            spec[slot] = speculative;
                            model.seq[slot] = Some(model.next);
                            model.next += 1;
                        }
                    }
                    6..=7 => {
                        let slot = rng.gen_range(0..n);
                        if model.live(slot) && spec[slot] {
                            rob.mark_safe(slot);
                            spec[slot] = false;
                        }
                    }
                    8 => {
                        let slot = rng.gen_range(0..n);
                        if model.live(slot) {
                            rob.free(slot);
                            spec[slot] = false;
                            model.seq[slot] = None;
                        }
                    }
                    _ => {
                        let live = model.age_order();
                        if live.is_empty() {
                            continue;
                        }
                        let pivot = model.seq[live[rng.gen_range(0..live.len())]].unwrap();
                        for (slot, sp) in spec.iter_mut().enumerate().take(n) {
                            if model.seq[slot].is_some_and(|q| q > pivot) {
                                rob.free(slot);
                                *sp = false;
                                model.seq[slot] = None;
                            }
                        }
                    }
                }
            }
            let completed: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
            let comp = BitVec64::from_indices(n, (0..n).filter(|&s| completed[s]));
            let width = rng.gen_range(1..10usize);

            // Model: committable = live, completed, non-speculative, and
            // no older live speculative instruction.
            let order = model.age_order();
            let committable: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&s| {
                    completed[s]
                        && !spec[s]
                        && order.iter().take_while(|&&o| o != s).all(|&o| !spec[o])
                })
                .collect();
            let want: Vec<usize> = committable.iter().copied().take(width).collect();

            let mut candidates = BitVec64::new(n);
            let mut got = Vec::new();
            rob.commit_grants_into(&comp, width, &mut candidates, &mut got);
            assert_eq!(got, want, "n={n} width={width}");
            assert_eq!(rob.any_commit_grant(&comp), !committable.is_empty(), "n={n}");

            // In-order grants: the width oldest live entries, truncated at
            // the first that is not completed-and-safe.
            let mut in_order = Vec::new();
            rob.commit_grants_in_order_into(&comp, width, &mut in_order);
            let want_ioc: Vec<usize> = order
                .iter()
                .copied()
                .take(width.min(n))
                .take_while(|&s| completed[s] && !spec[s])
                .collect();
            assert_eq!(in_order, want_ioc, "n={n} width={width}");
        }
    });
}

/// How a dispatch writes its row in [`mixed_history`].
#[derive(Clone, Copy)]
enum Dispatch {
    /// Everything valid is older (the plain `dispatch`).
    Total,
    /// Criticality dispatch: criticals outrank every non-critical.
    Critical,
    /// A random subset of the valid entries is older (partial order).
    Masked,
}

/// Drives `age` through dispatch/free histories whose rows come from the
/// given dispatch style. Returns the matrix and, for the total orders,
/// the model rank key per slot (`(class, dispatch time)`, lowest oldest);
/// partial orders have no total model.
fn mixed_history(
    rng: &mut Rng,
    n: usize,
    style: Dispatch,
) -> (AgeMatrix, Vec<Option<(u8, u64)>>) {
    let mut age = AgeMatrix::new(n);
    let mut cri = BitVec64::new(n);
    let mut key: Vec<Option<(u8, u64)>> = vec![None; n];
    let mut next = 0u64;
    for _ in 0..rng.gen_range(1..3 * n) {
        let slot = rng.gen_range(0..n);
        if key[slot].is_some() {
            if rng.gen_range(0..3u32) == 0 {
                age.free(slot);
                cri.clear(slot);
                key[slot] = None;
            }
            continue;
        }
        let class = match style {
            Dispatch::Total => {
                age.dispatch(slot);
                1
            }
            Dispatch::Critical => {
                if rng.gen::<bool>() {
                    age.dispatch_critical(slot, &cri);
                    cri.set(slot);
                    0
                } else {
                    age.dispatch(slot);
                    1
                }
            }
            Dispatch::Masked => {
                let older = BitVec64::from_indices(
                    n,
                    age.valid().iter_ones().filter(|_| rng.gen::<bool>()),
                );
                age.dispatch_masked(slot, &older);
                1
            }
        };
        key[slot] = Some((class, next));
        next += 1;
    }
    (age, key)
}

/// The word-parallel `select_oldest_into` and `grant_mask_into` equal
/// their scalar `_ref` oracle on every matrix shape the schedulers build:
/// plain, criticality-adjusted (CRI) and partial (`dispatch_masked`, where
/// rank ties force the `_ref` fallback) orders, at boundary capacities.
/// The total orders also match the explicit rank model.
#[test]
fn word_parallel_selects_match_ref_on_critical_and_partial_orders() {
    prop::check("wordpar_select_cri_partial", 0x30D2, |rng| {
        for n in CAPS {
            for style in [Dispatch::Total, Dispatch::Critical, Dispatch::Masked] {
                let (age, key) = mixed_history(rng, n, style);
                let req = random_request(rng, n);
                let width = rng.gen_range(0..10usize);

                let mut got = Vec::new();
                age.select_oldest_into(&req, width, &mut got);
                let mut reference = Vec::new();
                age.select_oldest_into_ref(&req, width, &mut reference);
                assert_eq!(got, reference, "n={n} width={width}");

                let mut mask = BitVec64::new(n);
                age.grant_mask_into(&req, width, &mut mask);
                reference.sort_unstable();
                assert_eq!(mask.iter_ones().collect::<Vec<_>>(), reference, "n={n} width={width}");

                if !matches!(style, Dispatch::Masked) {
                    let mut ranked: Vec<((u8, u64), usize)> = (0..n)
                        .filter(|&s| req.get(s))
                        .filter_map(|s| key[s].map(|k| (k, s)))
                        .collect();
                    ranked.sort_unstable();
                    let want: Vec<usize> = ranked.into_iter().map(|(_, s)| s).take(width).collect();
                    assert_eq!(got, want, "n={n} width={width}");
                }
            }
        }
    });
}
