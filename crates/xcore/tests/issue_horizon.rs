//! The core half of the quiet path's horizon: with one to three ready
//! threads the four-slot rotation (Eq. 2) leaves empty issue slots, and
//! jumping over them — `skip_idle_until` to `next_interesting_at`, then
//! one `tick` — must be indistinguishable from ticking every edge, and
//! so must `skip_idle_until` asked to skip arbitrarily far.

use swallow_isa::{Assembler, NodeId, ThreadId};
use swallow_sim::{ByteWriter, Time};
use swallow_xcore::{Core, CoreConfig, MAX_THREADS};

/// `threads` threads of ALU work, divides (which sleep on a cycle
/// count) and short timer sleeps of varying length, so ready and
/// sleeping threads interleave and the rotation length keeps changing.
fn core_with_threads(threads: usize) -> Core {
    let source = format!(
        "
            ldc   r5, {spawned}
            ldap  r6, worker
        spawn:
            bf    r5, worker
            tspawn r7, r6, r5
            sub   r5, r5, 1
            bu    spawn
        worker:
            getr  r11, timer
            ldc   r2, 7
            ldc   r10, 15
        work:
            add   r1, r1, 3
            xor   r3, r3, r1
            divu  r4, r1, r2
            and   r8, r1, r10
            in    r9, r11
            add   r9, r9, r8
            tmwait r11, r9
            in    r9, r11
            bu    work
        ",
        spawned = threads - 1
    );
    let program = Assembler::new().assemble(&source).expect("assembles");
    let mut core = Core::new(CoreConfig::swallow(NodeId(0)));
    core.load_program(&program).expect("fits");
    core
}

/// Everything the comparison covers: cycles, instructions retired per
/// thread, the ledger bits and the core's architectural state (per-thread
/// pcs and registers, the issue wheel, resources) as its snapshot bytes.
fn observe(core: &Core) -> (u64, Vec<u64>, [u64; 5], Vec<u8>) {
    let mut w = ByteWriter::new();
    core.encode_state(&mut w);
    let per_thread = (0..MAX_THREADS as u8)
        .map(|t| core.thread_instret(ThreadId(t)))
        .collect();
    (
        core.cycles(),
        per_thread,
        core.ledger().entry_bits(),
        w.finish(),
    )
}

#[test]
fn jumping_over_empty_issue_slots_matches_ticking_every_edge() {
    for threads in 1..=3 {
        let mut ticked = core_with_threads(threads);
        let mut jumped = core_with_threads(threads);
        let end = Time::ZERO + ticked.frequency().period().saturating_mul(40_000);
        let mut busy_edges = 0u64;
        while ticked.next_tick_at() <= end {
            busy_edges += u64::from(ticked.ready_threads() > 0);
            ticked.tick(ticked.next_tick_at());
        }
        let mut jumps = 0u64;
        while jumped.next_tick_at() <= end {
            let target = jumped.next_interesting_at().map_or(end, |at| at.min(end));
            jumped.skip_idle_until(target);
            jumped.tick(jumped.next_tick_at());
            jumps += 1;
        }
        // `skip_idle_until` caps itself: asked to skip all the way to the
        // end, it still stops short of every occupied slot and wake.
        let mut capped = core_with_threads(threads);
        while capped.next_tick_at() <= end {
            capped.skip_idle_until(end);
            capped.tick(capped.next_tick_at());
        }
        assert_eq!(
            observe(&capped),
            observe(&ticked),
            "{threads} threads: skipping past an issue slot or wake"
        );
        assert_eq!(jumped.local_now(), ticked.local_now());
        assert!(ticked.instret() > 1_000, "{threads} threads did work");
        assert!(ticked.trap().is_none());
        assert_eq!(
            observe(&jumped),
            observe(&ticked),
            "{threads} threads: jumped core diverged"
        );
        // One to three threads issue on at most three edges in four.
        assert!(
            jumps * 4 <= busy_edges * 3 + 4,
            "{threads} threads: {jumps} ticks for {busy_edges} busy edges"
        );
    }
}
