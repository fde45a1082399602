//! Soundness of the paced mechanisms' `next_due` reports.
//!
//! The engine steps Ignite replay, Jukebox replay and Confluence streams
//! only on the cycles one of them reports as due, and jumps over the rest.
//! That is exact only if stepping a mechanism at any cycle before its
//! reported due cycle (or at any cycle at all, when it reports `None`)
//! leaves the mechanism and every structure it can touch — BTB, CBP, ITLB
//! and the cache hierarchy — exactly as they were. Each property walks a
//! mechanism through its states the way the engine drives it and checks
//! that at every stop.

use proptest::prelude::*;
use proptest::TestCaseError;

use ignite_core::replay::ReplayConfig;
use ignite_core::{Ignite, IgniteConfig};
use ignite_prefetch::branch_index::{BranchIndex, PredecodedBranch};
use ignite_prefetch::confluence::{Confluence, ConfluenceConfig};
use ignite_prefetch::jukebox::{Jukebox, JukeboxConfig};
use ignite_uarch::addr::Addr;
use ignite_uarch::btb::{BranchKind, Btb, BtbEntry};
use ignite_uarch::cbp::Cbp;
use ignite_uarch::config::UarchConfig;
use ignite_uarch::hierarchy::{Hierarchy, Level};
use ignite_uarch::tlb::Itlb;
use ignite_uarch::Cycle;

/// The structures a paced mechanism may touch.
#[derive(Debug, Clone)]
struct World {
    btb: Btb,
    cbp: Cbp,
    itlb: Itlb,
    hierarchy: Hierarchy,
}

impl World {
    fn new() -> Self {
        let cfg = UarchConfig::tiny_for_tests();
        World {
            btb: Btb::new(&cfg.btb),
            cbp: Cbp::new(&cfg.cbp),
            itlb: Itlb::new(&cfg.itlb),
            hierarchy: Hierarchy::new(&cfg.hierarchy),
        }
    }
}

/// A paced mechanism, stepped the way the engine steps it.
trait Paced: Clone + std::fmt::Debug {
    fn next_due(&self, now: Cycle) -> Option<Cycle>;
    fn step(&mut self, now: Cycle, w: &mut World);
}

impl Paced for Ignite {
    fn next_due(&self, now: Cycle) -> Option<Cycle> {
        Ignite::next_due(self, now)
    }

    fn step(&mut self, now: Cycle, w: &mut World) {
        Ignite::step(self, now, &mut w.btb, &mut w.cbp, &mut w.itlb, &mut w.hierarchy);
    }
}

impl Paced for Jukebox {
    fn next_due(&self, now: Cycle) -> Option<Cycle> {
        Jukebox::next_due(self, now)
    }

    fn step(&mut self, now: Cycle, w: &mut World) {
        Jukebox::step(self, now, &mut w.hierarchy);
    }
}

/// Confluence together with the predecode index its streams fill the BTB
/// from.
#[derive(Debug, Clone)]
struct Streamer {
    confluence: Confluence,
    index: BranchIndex,
}

impl Paced for Streamer {
    fn next_due(&self, now: Cycle) -> Option<Cycle> {
        self.confluence.next_due(now)
    }

    fn step(&mut self, now: Cycle, w: &mut World) {
        self.confluence.step(now, &mut w.hierarchy, &self.index, &mut w.btb);
    }
}

/// Checks the property at `now`: the due report never lies in the past,
/// and a step before the due cycle changes nothing. The probed cycles are
/// `now` itself, the cycle just before the due one, and `now + offset`
/// for each offset. Returns the due cycle.
fn idle_before_due<M: Paced>(
    m: &M,
    w: &World,
    now: Cycle,
    offsets: &[Cycle],
) -> Result<Option<Cycle>, TestCaseError> {
    let due = m.next_due(now);
    prop_assert!(due.is_none_or(|d| d >= now), "due {:?} before now {}", due, now);
    let before = format!("{:?}", (m, w));
    let last_idle = due.map_or(now, |d| d.saturating_sub(1).max(now));
    for at in [now, last_idle].into_iter().chain(offsets.iter().map(|&o| now + o)) {
        if due.is_some_and(|d| at >= d) {
            continue;
        }
        let (mut m2, mut w2) = (m.clone(), w.clone());
        m2.step(at, &mut w2);
        prop_assert!(
            format!("{:?}", (&m2, &w2)) == before,
            "a step at cycle {} (due {:?}, now {}) changed state",
            at,
            due,
            now
        );
    }
    Ok(due)
}

/// Steps the engine's way from `now`: at the due cycle if there is one,
/// else the clock just moves on. Returns the next cycle not stepped.
fn step_due<M: Paced>(m: &mut M, w: &mut World, now: Cycle) -> Cycle {
    match m.next_due(now) {
        Some(due) => {
            m.step(due, w);
            due + 1
        }
        None => now + 1,
    }
}

/// A chain of taken branches in `pages` 4 KiB pages, so replay both
/// prefetches multi-line runs and warms several ITLB pages.
fn branch_chain(n: usize, pages: u64) -> Vec<BtbEntry> {
    (0..n as u64)
        .map(|i| {
            let pc = 0x40_0000 + (i % pages) * 0x1000 + (i * 52) % 0x1000;
            let kind = if i % 3 == 0 { BranchKind::Call } else { BranchKind::Conditional };
            BtbEntry::new(Addr::new(pc), Addr::new(pc + 0x90), kind)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ignite replay: pending (restoring or starved of L2 prefetch slots),
    /// throttled (too many restored entries untouched), abandoned by the
    /// watchdog, done, and never armed.
    #[test]
    fn ignite_steps_before_due_change_nothing(
        branches in 1usize..160,
        pages in 1u64..8,
        throttle in 0u64..48,
        watchdog in prop_oneof![Just(0u64), 1u64..96],
        armed in any::<bool>(),
        walk in prop::collection::vec((0u64..6, any::<bool>()), 0..120),
        offsets in prop::collection::vec(0u64..300, 1..5),
    ) {
        let mut w = World::new();
        let replay = ReplayConfig {
            throttle_threshold: throttle,
            watchdog_stall_steps: watchdog,
            ..ReplayConfig::default()
        };
        let mut ig = Ignite::new(IgniteConfig { replay, ..IgniteConfig::default() });
        let chain = branch_chain(branches, pages);
        ig.begin_invocation(7);
        for &e in &chain {
            w.btb.insert(e, false);
        }
        ig.observe_btb_insertions(&mut w.btb);
        ig.end_invocation(7);
        w.btb.flush();
        // Armed: the recorded container replays. Unarmed: a fresh one
        // only records, and its replayer never exists.
        ig.begin_invocation(if armed { 7 } else { 8 });

        let mut now: Cycle = 0;
        for (i, &(gap, touch)) in walk.iter().enumerate() {
            idle_before_due(&ig, &w, now, &offsets)?;
            // Demand lookups consume restored entries, lifting throttling.
            if touch {
                w.btb.lookup(chain[i % chain.len()].branch_pc);
            }
            now = step_due(&mut ig, &mut w, now) + gap;
        }
        // Run replay out, consuming every restored entry so throttling
        // cannot hold it back: the done state.
        for _ in 0..100_000 {
            if ig.next_due(now).is_none() {
                break;
            }
            now = step_due(&mut ig, &mut w, now);
            for e in &chain {
                w.btb.lookup(e.branch_pc);
            }
        }
        prop_assert_eq!(idle_before_due(&ig, &w, now, &offsets)?, None);
    }

    /// Jukebox replay: queued lines (issuing, or blocked on L2 MSHRs) and
    /// a drained queue.
    #[test]
    fn jukebox_steps_before_due_change_nothing(
        regions in prop::collection::vec(0u64..4096, 0..24),
        walk in prop::collection::vec(0u64..40, 0..120),
        offsets in prop::collection::vec(0u64..300, 1..5),
    ) {
        let mut w = World::new();
        let mut jb = Jukebox::new(JukeboxConfig::default());
        jb.begin_invocation(3);
        for &r in &regions {
            jb.observe_fill(Addr::new(0x80_0000 + r * 1024), Level::Memory);
        }
        jb.end_invocation(3);
        jb.begin_invocation(3);

        let mut now: Cycle = 0;
        for &gap in &walk {
            idle_before_due(&jb, &w, now, &offsets)?;
            now = step_due(&mut jb, &mut w, now) + gap;
        }
        for _ in 0..100_000 {
            if jb.next_due(now).is_none() {
                break;
            }
            now = step_due(&mut jb, &mut w, now);
        }
        prop_assert_eq!(idle_before_due(&jb, &w, now, &offsets)?, None);
    }

    /// Confluence: no stream, a stream armed with its lookup still in
    /// flight (`start_at` in the future), a streaming window, a window
    /// retired, and streams killed by resteers.
    #[test]
    fn confluence_steps_before_due_change_nothing(
        lookup_latency in 1u64..120,
        history in prop::collection::vec(0u64..64, 2..80),
        misses in prop::collection::vec((0usize..80, 0u64..8, any::<bool>()), 1..12),
        offsets in prop::collection::vec(0u64..200, 1..5),
    ) {
        let mut w = World::new();
        let line = |i: u64| Addr::new(0x20_0000 + i * 64);
        let index = BranchIndex::from_branches((0..64).map(|i| PredecodedBranch {
            pc: line(i) + 0x10,
            kind: BranchKind::Unconditional,
            static_target: Some(line(i + 7)),
        }));
        let mut confluence = Confluence::new(ConfluenceConfig {
            lookup_latency,
            stream_window: 6,
            ..ConfluenceConfig::default()
        });
        for (i, &l) in history.iter().enumerate() {
            confluence.observe_access(line(l), i % 3 == 0);
        }
        confluence.end_invocation();
        let mut s = Streamer { confluence, index };

        let mut now: Cycle = 0;
        for &(at, gap, resteer) in &misses {
            // A miss arms a stream whose lookup completes in the future.
            s.confluence.on_miss(line(history[at % history.len()]), now);
            idle_before_due(&s, &w, now, &offsets)?;
            for _ in 0..gap {
                idle_before_due(&s, &w, now, &offsets[..1])?;
                now = step_due(&mut s, &mut w, now);
            }
            if resteer {
                s.confluence.on_resteer();
            }
            idle_before_due(&s, &w, now, &offsets)?;
        }
        s.confluence.on_resteer();
        prop_assert_eq!(idle_before_due(&s, &w, now, &offsets)?, None);
    }
}
