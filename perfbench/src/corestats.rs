//! Per-layer counters of the core, memory and frontend models, summed
//! over the simulator runs of one configuration.

use crate::harness::Metrics;
use crate::metrics::stall_metric;
use orinoco_core::{SimStats, StallCause};

/// Counters summed over several runs; ratios are taken over the sums.
#[derive(Debug, Default)]
pub struct CoreAgg {
    cycles: u64,
    committed: u64,
    squashed: u64,
    issued: u64,
    replays: u64,
    ooo_commits: u64,
    issue_conflict_cycles: u64,
    rob_occ_sum: u64,
    iq_occ_sum: u64,
    iq_ready_sum: u64,
    stalls: [u64; StallCause::ALL.len()],
    l1_accesses: u64,
    l1_misses: u64,
    dram: u64,
    mshr_rejections: u64,
    prefetches: u64,
    mispredicts: u64,
    wrong_path: u64,
}

impl CoreAgg {
    pub fn add(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.committed += s.committed;
        self.squashed += s.squashed;
        self.issued += s.issued;
        self.replays += s.replays;
        self.ooo_commits += s.ooo_commits;
        self.issue_conflict_cycles += s.issue_conflict_cycles;
        self.rob_occ_sum += s.rob_occ_sum;
        self.iq_occ_sum += s.iq_occ_sum;
        self.iq_ready_sum += s.iq_ready_sum;
        for (slot, &c) in self.stalls.iter_mut().zip(StallCause::ALL.iter()) {
            *slot += s.stall_taxonomy.count(c);
        }
        self.l1_accesses += s.mem.l1_hits + s.mem.l1_misses;
        self.l1_misses += s.mem.l1_misses;
        self.dram += s.mem.dram_accesses;
        self.mshr_rejections += s.mem.mshr_rejections;
        self.prefetches += s.mem.prefetches;
        self.mispredicts += s.fetch.mispredicts;
        self.wrong_path += s.fetch.wrong_path_insts;
    }

    /// Mean IQ and ROB occupancy, and ready IQ entries per cycle.
    pub fn occupancy(&self) -> (f64, f64, f64) {
        let c = self.cycles.max(1) as f64;
        (
            self.iq_occ_sum as f64 / c,
            self.rob_occ_sum as f64 / c,
            self.iq_ready_sum as f64 / c,
        )
    }

    pub fn report(&self, m: &mut Metrics) {
        let cycles = self.cycles.max(1) as f64;
        let kinst = (self.committed.max(1) as f64) / 1000.0;
        m.set("core.cycles", self.cycles as f64);
        m.set("core.committed", self.committed as f64);
        m.set("core.squashed", self.squashed as f64);
        m.set("core.issued", self.issued as f64);
        m.set("core.replays", self.replays as f64);
        m.set(
            "core.useful_frac",
            self.committed as f64 / (self.committed + self.squashed).max(1) as f64,
        );
        m.set(
            "core.ooo_commit_frac",
            self.ooo_commits as f64 / self.committed.max(1) as f64,
        );
        m.set(
            "core.issue_conflict_frac",
            self.issue_conflict_cycles as f64 / cycles,
        );
        let (iq, rob, ready) = self.occupancy();
        m.set("core.rob_occ", rob);
        m.set("core.iq_occ", iq);
        m.set("core.iq_ready_per_cycle", ready);
        for (&c, &n) in StallCause::ALL.iter().zip(self.stalls.iter()) {
            m.set(stall_metric(c), n as f64 / cycles);
        }
        m.set(
            "mem.l1_miss_rate",
            self.l1_misses as f64 / self.l1_accesses.max(1) as f64,
        );
        m.set("mem.dram_per_kinst", self.dram as f64 / kinst);
        m.set(
            "mem.mshr_reject_per_kinst",
            self.mshr_rejections as f64 / kinst,
        );
        m.set("mem.prefetch_per_kinst", self.prefetches as f64 / kinst);
        m.set("frontend.mpki", self.mispredicts as f64 / kinst);
        m.set(
            "frontend.wrong_path_per_kinst",
            self.wrong_path as f64 / kinst,
        );
    }
}
