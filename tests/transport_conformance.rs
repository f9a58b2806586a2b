//! Trait-level conformance suite: one battery — steady-state agreement,
//! crash mid-stream, quiescence semantics, membership, capability markers —
//! run generically against **all three** [`StackKind`]s on **both**
//! [`Backend`]s through the [`GroupTransport`] façade.
//!
//! Nothing in this file names a concrete harness type: if it compiles and
//! passes, every stack honors the unified surface the same way on the
//! deterministic simulator *and* on the live thread-per-member runtime,
//! which is exactly what lets workloads, scenarios and the replication
//! layer swap architectures (and execution substrates) with one builder
//! argument.
//!
//! Because live runs are not deterministic, every assertion here is
//! **bound-based**: the battery settles each phase by polling the group in
//! small time slices until the expected condition holds or a generous
//! deadline passes, then asserts the condition — never "exactly these
//! events at exactly this virtual instant". Safety properties (total
//! order, no duplication, invariant cleanliness) are asserted identically
//! on both backends; only *when* things happen is left open.

use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::{Backend, Group, GroupTransport, InvariantChecker, StackKind};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

const BACKENDS: [Backend; 2] = [Backend::Sim, Backend::Live];

fn build_on(backend: Backend, kind: StackKind, members: usize, joiners: usize, seed: u64) -> Group {
    Group::builder()
        .members(members)
        .joiners(joiners)
        .stack(kind)
        .backend(backend)
        .seed(seed)
        .build()
}

/// Drives a group forward in 5 ms slices until `done` holds or the cursor
/// passes `limit`, returning whether `done` held. On the simulator a slice
/// advances virtual time; on the live backend it sleeps the caller while
/// member threads keep working. The cursor persists across phases of one
/// test so later phases keep moving the same clock forward.
struct Driver {
    cursor: Time,
}

impl Driver {
    fn new() -> Self {
        Driver { cursor: Time::ZERO }
    }

    fn settle(&mut self, g: &mut Group, limit: Time, done: impl Fn(&Group) -> bool) -> bool {
        let step = TimeDelta::from_millis(5);
        loop {
            if done(g) {
                return true;
            }
            if self.cursor >= limit {
                return done(g);
            }
            self.cursor += step;
            g.run_until(self.cursor);
        }
    }

    /// Settles on `done` and panics with `what` if the deadline passes
    /// first — the bound-based replacement for "run to t, then assert".
    fn expect(&mut self, g: &mut Group, limit: Time, what: &str, done: impl Fn(&Group) -> bool) {
        assert!(self.settle(g, limit, done), "deadline passed: {what}");
    }
}

/// Everyone delivered exactly `n` atomic payloads.
fn all_delivered(n: usize) -> impl Fn(&Group) -> bool {
    move |g| g.adelivered_payloads().iter().all(|s| s.len() == n)
}

/// The first `k` processes delivered exactly `n` atomic payloads.
fn first_delivered(k: usize, n: usize) -> impl Fn(&Group) -> bool {
    move |g| g.adelivered_payloads()[..k].iter().all(|s| s.len() == n)
}

/// `first_delivered(k, n)`, and every process alive in the newest view
/// installed anywhere (the whole group while none is) ends its atomic
/// stream where p0's ends. On the live backend the stream's tail reaches a
/// member that rejoined after a heal a few milliseconds after it reaches
/// p0-p2; the oracle's survivor agreement is meant for a settled run.
fn tail_delivered(k: usize, n: usize) -> impl Fn(&Group) -> bool {
    move |g| {
        let seqs = g.adelivered_payloads();
        let alive = g.alive_flags();
        let members = match g.views().into_iter().flatten().max_by_key(|v| v.id) {
            Some(newest) => newest.members,
            None => (0..g.process_count() as u32).map(p).collect(),
        };
        first_delivered(k, n)(g)
            && members
                .iter()
                .filter(|m| alive[m.index()])
                .all(|m| seqs[m.index()].last() == seqs[0].last())
    }
}

/// Steady state: every member of every stack delivers the same stream in
/// the same order, with no loss and no duplication — on both backends.
#[test]
fn steady_state_agreement_on_every_stack() {
    for backend in BACKENDS {
        for kind in StackKind::ALL {
            let mut g = build_on(backend, kind, 4, 0, 31);
            let tag = format!("{backend:?}/{}", kind.name());
            assert_eq!(g.stack(), kind);
            assert_eq!(g.process_count(), 4);
            for i in 0..12u32 {
                g.abcast_at(Time::from_millis(1 + 2 * i as u64), p(i % 4), vec![i as u8]);
            }
            let mut d = Driver::new();
            d.expect(&mut g, Time::from_secs(20), &tag, all_delivered(12));
            let report = InvariantChecker::check(&g, 4);
            assert!(report.is_clean(), "{tag}: {:#?}", report.violations);
            let seqs = g.adelivered_payloads();
            // Every injected op, not just twelve of something.
            let mut ops = seqs[0].clone();
            ops.sort();
            let injected: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i]).collect();
            assert_eq!(ops, injected, "{tag}: every op delivered");
            // The delivery trace carries consistent identities: every
            // record's (sender, seq) appears at every correct process.
            let delivered = g.delivered();
            let ids0: Vec<(ProcessId, u64)> =
                delivered[0].iter().map(|d| (d.sender, d.seq)).collect();
            for s in &delivered[1..] {
                let ids: Vec<(ProcessId, u64)> = s.iter().map(|d| (d.sender, d.seq)).collect();
                assert_eq!(ids, ids0, "{tag}: identities agree");
            }
        }
    }
}

/// Crash mid-stream: the survivors keep delivering, agree on the order, and
/// the dead process stops being reported alive — on both backends (the
/// live backend's crash is a real one: the member's thread exits).
#[test]
fn crash_mid_stream_keeps_survivors_consistent() {
    for backend in BACKENDS {
        for kind in StackKind::ALL {
            let mut g = build_on(backend, kind, 4, 0, 32);
            let tag = format!("{backend:?}/{}", kind.name());
            // A few messages land before the crash…
            for i in 0..4u32 {
                g.abcast_at(Time::from_millis(1 + i as u64), p(i % 3), vec![i as u8]);
            }
            g.crash_at(Time::from_millis(30), p(3));
            // …and the stream continues from the survivors afterwards.
            for i in 4..12u32 {
                g.abcast_at(
                    Time::from_millis(200 + 2 * i as u64),
                    p(i % 3),
                    vec![i as u8],
                );
            }
            let mut d = Driver::new();
            d.expect(&mut g, Time::from_secs(20), &tag, first_delivered(3, 12));
            d.expect(&mut g, Time::from_secs(20), &tag, |g| !g.alive_flags()[3]);

            let alive = g.alive_flags();
            assert!(alive[..3].iter().all(|&a| a), "{tag}: survivors alive");
            let report = InvariantChecker::check(&g, 4);
            assert!(report.is_clean(), "{tag}: {:#?}", report.violations);
        }
    }
}

/// The steady-state and crash-mid-stream batteries hold for a group large
/// enough that the new architecture's failure detector gossips: above
/// `SCALE_THRESHOLD` a tick probes a ring segment and carries an alive
/// digest (n = 20 → 5 peers a tick, a 4-tick cycle), and a relay reaches
/// 5 ring successors. Survivors stay consistent through a crash on both
/// backends.
#[test]
fn gossip_fd_passes_the_conformance_battery() {
    use gcs::core::StackConfig;
    for backend in BACKENDS {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut g = Group::builder()
            .members(20)
            .stack_config(cfg)
            .backend(backend)
            .seed(33)
            .build();
        let tag = format!("{backend:?}");
        for i in 0..8u32 {
            g.abcast_at(
                Time::from_millis(1 + 2 * i as u64),
                p(i % 20),
                vec![i as u8],
            );
        }
        g.crash_at(Time::from_millis(40), p(19));
        for i in 8..16u32 {
            g.abcast_at(
                Time::from_millis(300 + 2 * i as u64),
                p(i % 19),
                vec![i as u8],
            );
        }
        let mut d = Driver::new();
        d.expect(&mut g, Time::from_secs(30), &tag, first_delivered(19, 16));
        d.expect(&mut g, Time::from_secs(30), &tag, |g| !g.alive_flags()[19]);
        assert!(g.alive_flags()[..19].iter().all(|&a| a), "{tag}");
        let report = InvariantChecker::check(&g, 20);
        assert!(report.is_clean(), "{tag}: {:#?}", report.violations);
    }
}

/// A joiner started outside the group enters through the unified `join_at`
/// and participates in post-join traffic on every stack and backend.
#[test]
fn join_through_the_unified_entry_point() {
    for backend in BACKENDS {
        for kind in StackKind::ALL {
            let mut g = build_on(backend, kind, 3, 1, 33);
            let tag = format!("{backend:?}/{}", kind.name());
            g.join_at(Time::from_millis(10), p(3), p(0));
            // Every founding member's last view includes the joiner.
            let mut d = Driver::new();
            d.expect(&mut g, Time::from_secs(20), &tag, |g| {
                let views = g.views();
                (0..3).all(|i| views[i].last().is_some_and(|v| v.contains(p(3))))
            });
            // Post-join traffic reaches the joiner. The injection is placed
            // past the settle cursor so it is never scheduled in the past.
            let t = d.cursor + TimeDelta::from_millis(100);
            g.abcast_at(t, p(1), b"post-join".to_vec());
            d.expect(&mut g, Time::from_secs(40), &tag, |g| {
                g.adelivered_payloads()[3].contains(&b"post-join".to_vec())
            });
        }
    }
}

/// `run_to_quiescence` semantics are uniform: a group with live members
/// never quiesces (its heartbeat/token timers re-arm forever); once every
/// process has crashed, the residual events drain and the flag flips to
/// `true`.
#[test]
fn quiescence_flag_is_meaningful_on_every_stack() {
    for backend in BACKENDS {
        for kind in StackKind::ALL {
            let mut g = build_on(backend, kind, 3, 0, 34);
            let tag = format!("{backend:?}/{}", kind.name());
            g.abcast_at(Time::from_millis(1), p(0), b"m".to_vec());
            let quiesced = g.run_to_quiescence(Time::from_millis(500));
            assert!(!quiesced, "{tag}: a running group must not quiesce");
            let mut d = Driver::new();
            d.cursor = Time::from_millis(500);
            d.expect(&mut g, Time::from_secs(20), &tag, all_delivered(1));

            // Crash-stop everything: the event queue drains and quiescence
            // is reachable. The simulator needs headroom for long-scheduled
            // timers to drain off the queue; the live runtime just waits
            // for the three member threads to exit.
            let at = d.cursor + TimeDelta::from_millis(100);
            for i in 0..3 {
                g.crash_at(at, p(i));
            }
            let limit = match backend {
                Backend::Sim => Time::from_secs(7200),
                Backend::Live => at + TimeDelta::from_secs(20),
            };
            let quiesced = g.run_to_quiescence(limit);
            assert!(quiesced, "{tag}: an all-crashed group quiesces");
        }
    }
}

/// Capability markers reflect the paper's pick-your-services modularity:
/// only the new architecture offers generic/reliable broadcast, while every
/// stack executes scripted removal; the markers and the entry points agree
/// on both backends.
#[test]
fn capability_markers_match_the_stacks() {
    for backend in BACKENDS {
        for kind in StackKind::ALL {
            let g = build_on(backend, kind, 3, 0, 35);
            let tag = format!("{backend:?}/{}", kind.name());
            let expect = kind == StackKind::NewArch;
            assert_eq!(g.supports_gbcast(), expect, "{tag}");
            assert_eq!(g.supports_rbcast(), expect, "{tag}");
            assert!(g.supports_removal(), "{tag}");
        }
        // The supported path actually works end to end.
        let mut g = build_on(backend, StackKind::NewArch, 3, 0, 36);
        g.rbcast_at(Time::from_millis(1), p(0), b"r".to_vec());
        let mut d = Driver::new();
        d.expect(&mut g, Time::from_secs(20), "rbcast delivery", |g| {
            g.delivered().iter().all(|s| s.len() == 1)
        });
    }
}

/// The unsupported entry points fail loudly, pointing at the marker.
#[test]
#[should_panic(expected = "supports_gbcast")]
fn gbcast_on_the_token_stack_panics_with_the_capability_hint() {
    use gcs::core::MessageClass;
    let mut g = build_on(Backend::Sim, StackKind::Token, 3, 0, 37);
    g.gbcast_at(Time::from_millis(1), p(0), MessageClass(0), b"x".to_vec());
}

/// The same hint fires through the live backend's projection.
#[test]
#[should_panic(expected = "supports_gbcast")]
fn gbcast_on_a_live_baseline_panics_with_the_capability_hint() {
    use gcs::core::MessageClass;
    let mut g = build_on(Backend::Live, StackKind::Token, 3, 0, 37);
    g.gbcast_at(Time::from_millis(1), p(0), MessageClass(0), b"x".to_vec());
}

/// Scripted removal mid-stream on every stack and backend (honestly gated
/// on the capability marker): the survivors keep the stream alive and
/// totally ordered, the target misses the post-removal suffix, and the
/// whole run is invariant-clean.
#[test]
fn removal_mid_stream_on_every_stack() {
    for backend in BACKENDS {
        for kind in StackKind::ALL {
            let mut g = build_on(backend, kind, 4, 0, 41);
            let tag = format!("{backend:?}/{}", kind.name());
            if !g.supports_removal() {
                continue; // honest skip: the stack cannot express removal
            }
            for i in 0..6u32 {
                g.abcast_at(Time::from_millis(1 + 2 * i as u64), p(i % 4), vec![i as u8]);
            }
            g.remove_at(Time::from_millis(60), p(1), p(3));
            for i in 6..12u32 {
                g.abcast_at(
                    Time::from_millis(400 + 2 * i as u64),
                    p(i % 3),
                    vec![i as u8],
                );
            }
            let mut d = Driver::new();
            d.expect(&mut g, Time::from_secs(20), &tag, first_delivered(3, 12));

            let seqs = g.adelivered_payloads();
            // The removed member misses the post-removal suffix, and if it
            // saw the change its last installed view excludes it.
            assert!(
                seqs[3].len() < 12,
                "{tag}: removed member does not see the full stream"
            );
            if let Some(last) = g.views()[3].last() {
                assert!(
                    !last.contains(p(3)),
                    "{tag}: removed member's last view excludes it"
                );
            }
            let report = InvariantChecker::check(&g, 4);
            assert!(report.is_clean(), "{tag}: {:#?}", report.violations);
        }
    }
}

/// Partition + heal on every stack and backend: the majority side keeps
/// (or recovers) the stream, nothing splits the sequence space, and the
/// run is invariant-clean — the traditional stacks resolve the healed
/// minority through kill/exclusion + re-join, which the oracle absorbs as
/// an incarnation reset.
#[test]
fn partition_heal_on_every_stack() {
    for backend in BACKENDS {
        for kind in StackKind::ALL {
            let mut g = build_on(backend, kind, 5, 0, 42);
            let tag = format!("{backend:?}/{}", kind.name());
            for i in 0..5u32 {
                g.abcast_at(Time::from_millis(1 + 2 * i as u64), p(i), vec![i as u8]);
            }
            g.partition_at(
                Time::from_millis(40),
                vec![vec![p(0), p(1), p(2)], vec![p(3), p(4)]],
            );
            // Majority-side traffic during the split…
            for i in 5..9u32 {
                g.abcast_at(
                    Time::from_millis(300 + 2 * i as u64),
                    p(i % 3),
                    vec![i as u8],
                );
            }
            g.heal_at(Time::from_millis(700));
            // …and traffic after the heal.
            for i in 9..12u32 {
                g.abcast_at(Time::from_secs(3), p(i % 3), vec![i as u8]);
            }
            let mut d = Driver::new();
            d.expect(&mut g, Time::from_secs(30), &tag, tail_delivered(3, 12));

            let report = InvariantChecker::check(&g, 5);
            assert!(report.is_clean(), "{tag}: {:#?}", report.violations);
        }
    }
}

/// One workload definition drives all three stacks identically on both
/// backends — the cross-stack comparison loop the scenario engine builds
/// on, via the zero-copy injection path.
#[test]
fn one_workload_definition_drives_all_stacks() {
    for backend in BACKENDS {
        let mut per_stack = Vec::new();
        for kind in StackKind::ALL {
            let mut g = build_on(backend, kind, 3, 0, 38);
            let tag = format!("{backend:?}/{}", kind.name());
            // The same closure-built stream, via the zero-copy path.
            for i in 0..6u32 {
                let t = Time::from_millis(1) + TimeDelta::from_millis(2).saturating_mul(i as u64);
                g.abcast_build_at(t, p(i % 3), &mut |buf| {
                    buf.clear();
                    buf.extend_from_slice(&[i as u8, 0xAB]);
                });
            }
            let mut d = Driver::new();
            d.expect(&mut g, Time::from_secs(20), &tag, all_delivered(6));
            per_stack.push((kind, g.metrics().total_sent()));
        }
        // Three architectures, three different costs for the same stream —
        // the comparison the paper's Section 4 is about.
        assert_eq!(per_stack.len(), 3);
        assert!(per_stack.iter().all(|&(_, sent)| sent > 0), "{backend:?}");
    }
}
