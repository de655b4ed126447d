//! The structured commit digest: sensitivity, order and chunk invariance.
//!
//! `SimResult::commit_digest` folds every field of every `CommitEvent`
//! into word-form FNV-1a (`orinoco_server::digest`). These tests pin the
//! properties the server relies on: any one-field change (including
//! `Some(x)` versus `None`) and any reordering move the digest; neither
//! the drain cadence nor `progress_cycles` does, so streamed and quiet
//! submissions share one cache entry. That the in-process client and the
//! TCP transport return the one-shot bytes is pinned in `campaign.rs`.

use orinoco_core::{CommitEvent, Core};
use orinoco_isa::{ArchReg, DynInst, InstClass, Opcode};
use orinoco_server::{run_one_shot, CommitDigest, ConfigSpec, JobResult, JobSpec, Server, SimSpec};
use orinoco_workloads::Workload;

fn digest(events: &[CommitEvent]) -> u64 {
    let mut d = CommitDigest::new();
    for ev in events {
        d.push(ev);
    }
    d.value()
}

/// An event with every `Option` populated (and one `Some(0)`, the value a
/// missing tag would alias with `None`).
fn base_event() -> CommitEvent {
    CommitEvent {
        seq: 17,
        cycle: 301,
        oldest_live_seq: Some(0),
        dyn_inst: DynInst {
            seq: 17,
            index: 5,
            pc: 20,
            op: Opcode::Ld,
            class: InstClass::Load,
            dst: Some(ArchReg::int(3)),
            src1: Some(ArchReg::int(4)),
            src2: Some(ArchReg::fp(1)),
            mem_addr: Some(0x40),
            taken: false,
            next_pc: 24,
        },
    }
}

#[test]
fn every_single_field_change_moves_the_digest() {
    type Mutation = (&'static str, fn(&mut CommitEvent));
    let mutations: [Mutation; 20] = [
        ("seq", |e| e.seq += 1),
        ("cycle", |e| e.cycle += 1),
        ("oldest_live_seq value", |e| e.oldest_live_seq = Some(1)),
        ("oldest_live_seq Some(0) -> None", |e| e.oldest_live_seq = None),
        ("dyn_inst.seq", |e| e.dyn_inst.seq += 1),
        ("index", |e| e.dyn_inst.index += 1),
        ("pc", |e| e.dyn_inst.pc += 4),
        ("op", |e| e.dyn_inst.op = Opcode::Add),
        ("class", |e| e.dyn_inst.class = InstClass::Store),
        ("dst value", |e| e.dyn_inst.dst = Some(ArchReg::int(0))),
        ("dst -> None", |e| e.dyn_inst.dst = None),
        ("src1 value", |e| e.dyn_inst.src1 = Some(ArchReg::fp(4))),
        ("src1 -> None", |e| e.dyn_inst.src1 = None),
        ("src2 value", |e| e.dyn_inst.src2 = Some(ArchReg::int(1))),
        ("src2 -> None", |e| e.dyn_inst.src2 = None),
        ("mem_addr value", |e| e.dyn_inst.mem_addr = Some(0x48)),
        ("mem_addr -> None", |e| e.dyn_inst.mem_addr = None),
        ("mem_addr Some(0)", |e| e.dyn_inst.mem_addr = Some(0)),
        ("taken", |e| e.dyn_inst.taken = true),
        ("next_pc", |e| e.dyn_inst.next_pc += 4),
    ];
    let base = base_event();
    let reference = digest(std::slice::from_ref(&base));
    assert_ne!(reference, CommitDigest::new().value(), "an event must move the empty digest");
    let mut seen = vec![reference];
    for (name, mutate) in mutations {
        let mut ev = base.clone();
        mutate(&mut ev);
        let d = digest(std::slice::from_ref(&ev));
        assert_ne!(d, reference, "changing {name} left the digest unchanged");
        assert!(!seen.contains(&d), "changing {name} collided with an earlier variant");
        seen.push(d);
    }

    // `None` must not alias `Some(0)` in any tagged slot, even where the
    // untagged words would line up.
    let mut none = base.clone();
    none.dyn_inst.mem_addr = None;
    let mut zero = base;
    zero.dyn_inst.mem_addr = Some(0);
    assert_ne!(digest(&[none]), digest(&[zero]));
}

/// The real commit stream of a short job, drained once at the end.
fn real_stream(spec: &SimSpec) -> Vec<CommitEvent> {
    let mut emu = spec.workload.build(spec.seed, spec.scale as u32);
    emu.set_step_limit(spec.max_instrs);
    let mut core = Core::new(emu, spec.config.to_core_config(spec.seed));
    core.enable_commit_trace();
    assert!(core.run_until(SimSpec::DEFAULT_MAX_CYCLES), "reference run did not finish");
    core.drain_commit_trace()
}

fn spec(workload: Workload, seed: u64, progress_cycles: u64) -> SimSpec {
    SimSpec {
        config: ConfigSpec::orinoco_base(),
        workload,
        scale: 1,
        seed,
        max_instrs: 4_000,
        max_cycles: 0,
        progress_cycles,
    }
}

#[test]
fn swapping_two_events_moves_the_digest() {
    let (a, b) = (base_event(), {
        let mut e = base_event();
        e.seq += 1;
        e.dyn_inst.seq += 1;
        e
    });
    assert_ne!(digest(&[a.clone(), b.clone()]), digest(&[b, a]));

    // On a real stream: the whole-stream digest is the one the server
    // reports, and swapping any adjacent pair of commits changes it.
    let job = spec(Workload::HashjoinLike, 7, 0);
    let mut events = real_stream(&job);
    let served = run_one_shot(&job).expect("one-shot");
    assert_eq!(digest(&events), served.commit_digest);
    for i in [0, events.len() / 2, events.len() - 2] {
        events.swap(i, i + 1);
        assert_ne!(digest(&events), served.commit_digest, "swap at {i} went unnoticed");
        events.swap(i, i + 1);
    }
}

#[test]
fn drain_cadence_never_changes_the_result() {
    // Re-run the server's harvest by hand at several drain cadences; the
    // digest and the final statistics must match the one-shot result,
    // which uses the server's own cadence.
    for workload in [Workload::GemmLike, Workload::MemlatLike] {
        let job = spec(workload, 11, 0);
        let reference = run_one_shot(&job).expect("one-shot");
        let whole = real_stream(&job);
        assert_eq!(digest(&whole), reference.commit_digest, "{workload}: single drain");
        for chunk in [1u64, 7, 97, 1000, 4096] {
            let mut emu = job.workload.build(job.seed, job.scale as u32);
            emu.set_step_limit(job.max_instrs);
            let cfg = job.config.to_core_config(job.seed);
            let most = chunk * cfg.commit_width as u64;
            let mut core = Core::new(emu, cfg);
            core.enable_commit_trace();
            let (mut buf, mut d, mut limit) = (Vec::new(), CommitDigest::new(), 0u64);
            loop {
                limit += chunk;
                let finished = core.run_until(limit);
                core.drain_commit_trace_into(&mut buf);
                assert!(
                    buf.len() as u64 <= most,
                    "{workload}: a {chunk}-cycle drain held {} events",
                    buf.len()
                );
                for ev in &buf {
                    d.push(ev);
                }
                if finished {
                    break;
                }
            }
            assert_eq!(d.value(), reference.commit_digest, "{workload}: chunk {chunk}");
            assert_eq!(
                format!("{:?}", core.stats()),
                reference.stats_debug,
                "{workload}: chunk {chunk} changed the statistics"
            );
        }
    }
}

#[test]
fn progress_cadence_never_changes_the_result_or_the_cache_entry() {
    let quiet = spec(Workload::ExchangeLike, 5, 0);
    let reference = run_one_shot(&quiet).expect("one-shot");
    for progress_cycles in [1u64, 97, 4096] {
        let streamed = SimSpec { progress_cycles, ..quiet };
        assert_eq!(
            run_one_shot(&streamed).expect("one-shot"),
            reference,
            "progress_cycles {progress_cycles} changed the one-shot result"
        );
        assert_eq!(JobSpec::Sim(streamed).cache_key(), JobSpec::Sim(quiet).cache_key());
    }

    // A streamed submission computes; every later cadence, quiet
    // included, is a hit on that one entry.
    let server = Server::new(2);
    let client = server.client();
    let first = SimSpec { progress_cycles: 97, ..quiet };
    let (result, progress) = client.wait(client.submit(JobSpec::Sim(first)));
    assert!(!progress.is_empty(), "a 97-cycle cadence streamed no progress");
    assert_eq!(result.expect("streamed job"), JobResult::Sim(reference.clone()));
    for progress_cycles in [0u64, 1, 4096] {
        let again = SimSpec { progress_cycles, ..quiet };
        assert_eq!(
            client.run(JobSpec::Sim(again)).expect("resubmission"),
            JobResult::Sim(reference.clone())
        );
    }
    let stats = server.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 3), "cadences must share one cache entry");
}
