//! F1–F7: every architecture figure of the paper as a runnable stack.
//!
//! Each test builds the corresponding protocol stack, drives the scenario
//! the paper uses to motivate it, and checks the properties the figure is
//! supposed to provide.

use gcs::core::{ConflictRelation, MessageClass, StackConfig};
use gcs::kernel::{ProcessId, Time, TimeDelta};
use gcs::traditional::IsisConfig;
use gcs::{Group, GroupTransport, InvariantChecker, StackKind};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// F1 — Fig 1 (Isis): membership below view synchrony below abcast; a crash
/// causes an exclusion view change, after which ordering continues under a
/// new sequencer.
#[test]
fn isis_stack_fig1() {
    let mut sim = Group::builder()
        .members(4)
        .stack(StackKind::Isis)
        .seed(101)
        .build();
    for i in 0..8u32 {
        sim.abcast_at(Time::from_millis(1 + i as u64), p(i % 4), vec![i as u8]);
    }
    sim.crash_at(Time::from_millis(50), p(0));
    sim.abcast_at(Time::from_millis(400), p(2), b"post".to_vec());
    sim.run_until(Time::from_secs(2));

    let report = InvariantChecker::check(&sim, 4);
    assert!(report.is_clean(), "{:#?}", report.violations);
    let seqs = sim.adelivered_payloads();
    // The crash forced a membership change (the traditional coupling).
    let last = sim.views()[1]
        .last()
        .expect("exclusion view change")
        .clone();
    assert_eq!(last.members, vec![p(1), p(2), p(3)]);
    assert!(seqs[1].contains(&b"post".to_vec()));
}

/// F2 — Fig 2 (Phoenix): same layering, but exclusion decisions survive at
/// the granularity of processes, not processors — modelled by the same
/// stack where a killed process is re-admitted rather than lost.
#[test]
fn phoenix_stack_fig2() {
    let mut sim = Group::builder()
        .members(3)
        .stack(StackKind::Isis)
        .isis_config(IsisConfig::default())
        .seed(102)
        .build();
    sim.partition_at(Time::from_millis(40), vec![vec![p(0), p(1)], vec![p(2)]]);
    sim.heal_at(Time::from_millis(400));
    sim.run_until(Time::from_secs(3));
    let killed = !sim.resets()[2].is_empty();
    let rejoined = !sim.rejoins()[2].is_empty();
    assert!(killed, "p2 was excluded while unreachable");
    assert!(rejoined, "process-level recovery: p2 re-admitted");
    let last = sim.views()[0].last().expect("views").clone();
    assert_eq!(last.members.len(), 3, "full membership restored");
}

/// F3 — Fig 3 (RMP): fault-free membership rides the *total order* (a join
/// is an ordered message), while crashes go through the separate
/// fault-tolerant reformation protocol.
#[test]
fn rmp_stack_fig3() {
    let mut sim = Group::builder()
        .members(3)
        .joiners(1)
        .stack(StackKind::Token)
        .seed(103)
        .build();
    // Fault-free join: ordered like any other message.
    sim.join_at(Time::from_millis(5), p(3), p(0));
    sim.abcast_at(Time::from_millis(80), p(0), b"hello".to_vec());
    sim.run_until(Time::from_millis(500));
    for i in 0..4 {
        let ring = sim.views()[i].last().expect("ring").clone();
        assert!(ring.contains(p(3)), "p{i}: join ordered through abcast");
    }
    // Fault path: reformation.
    sim.crash_at(Time::from_millis(500), p(0));
    sim.abcast_at(Time::from_millis(800), p(1), b"post-crash".to_vec());
    sim.run_until(Time::from_secs(2));
    let seqs = sim.adelivered_payloads();
    assert!(seqs[1].contains(&b"post-crash".to_vec()));
    assert_eq!(seqs[1], seqs[2]);
}

/// F4 — Fig 4 (Totem): token ordering + membership (token-loss detection)
/// + recovery of messages lost with the broken ring.
#[test]
fn totem_stack_fig4() {
    let mut sim = Group::builder()
        .members(5)
        .stack(StackKind::Token)
        .seed(104)
        .build();
    for i in 0..15u32 {
        sim.abcast_at(
            Time::from_millis(1 + (i / 5) as u64 * 3),
            p(i % 5),
            vec![i as u8],
        );
    }
    sim.crash_at(Time::from_millis(30), p(2));
    sim.run_until(Time::from_secs(2));
    let report = InvariantChecker::check(&sim, 5);
    assert!(report.is_clean(), "{:#?}", report.violations);
    // Reformation excluded the crashed member.
    for i in [0usize, 1, 3, 4] {
        let ring = sim.views()[i].last().expect("reformed").clone();
        assert!(!ring.contains(p(2)), "p{i} excluded the crashed member");
    }
}

/// F5 — Fig 5 (Ensemble): a *modular* linear stack. In a component graph a
/// linear stack is a chain of ordinary components on one process: each layer
/// knows the ids of the layers above and below it, "down" is an emit to the
/// one below and "up" an emit to the one above; the bottom layer sends to
/// itself on the peer and the top layer outputs to the application.
#[test]
fn ensemble_stack_fig5() {
    use gcs::kernel::{Component, ComponentId, Context, Event, Process};
    use gcs::sim::{Runtime, SimConfig, SimWorld};

    const TOP: ComponentId = ComponentId::new(0);
    const MID: ComponentId = ComponentId::new(1);
    const NET: ComponentId = ComponentId::new(2);

    /// An event on its way down or up, carrying the layers it passed.
    #[derive(Clone, Debug, PartialEq)]
    enum Ev {
        Down(Vec<&'static str>),
        Up(Vec<&'static str>),
    }
    impl Event for Ev {
        fn kind(&self) -> &'static str {
            "ev"
        }
    }

    /// One layer: records itself on the event and passes it on in the
    /// direction it travels.
    struct Layer {
        name: &'static str,
        above: Option<ComponentId>,
        below: Option<ComponentId>,
    }
    impl Component<Ev> for Layer {
        fn on_event(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
            match ev {
                Ev::Down(mut path) => {
                    path.push(self.name);
                    match self.below {
                        Some(below) => ctx.emit(below, Ev::Down(path)),
                        None => ctx.send(p(1), Ev::Up(path)),
                    }
                }
                Ev::Up(mut path) => {
                    path.push(self.name);
                    match self.above {
                        Some(above) => ctx.emit(above, Ev::Up(path)),
                        None => ctx.output(Ev::Up(path)),
                    }
                }
            }
        }
    }

    let layer = |name, above, below| Layer { name, above, below };
    let build = move |id: ProcessId| {
        Process::builder(id)
            .with(TOP, layer("top", None, Some(MID)))
            .with(MID, layer("mid", Some(TOP), Some(NET)))
            .with(NET, layer("net", Some(MID), None))
            .build()
    };
    let mut sim: SimWorld<Ev> = SimWorld::start(SimConfig::lan(105), 2, build);
    sim.inject(Time::from_millis(1), p(0), TOP, Ev::Down(Vec::new()));
    assert!(sim.run_to_quiescence(Time::from_secs(1)));
    // The event went top to bottom at p0, then bottom to top at p1.
    let mut got: Vec<(ProcessId, Ev)> = Vec::new();
    sim.visit_outputs(&mut |_, proc, e| got.push((proc, e.clone())));
    let path = vec!["top", "mid", "net", "net", "mid", "top"];
    assert_eq!(got, vec![(p(1), Ev::Up(path))]);
}

/// F6 — Fig 6 (new architecture, overview): consensus+FD at the bottom,
/// abcast above them, membership above abcast. A crash does *not* trigger a
/// view change yet ordering continues.
#[test]
fn new_stack_fig6() {
    let mut cfg = StackConfig::default();
    cfg.monitoring_timeout = TimeDelta::from_secs(3600);
    let mut g = Group::builder()
        .members(5)
        .stack_config(cfg)
        .seed(106)
        .build();
    g.crash_at(Time::from_millis(30), p(0));
    g.crash_at(Time::from_millis(35), p(4));
    for i in 0..10u32 {
        g.abcast_at(
            Time::from_millis(40 + i as u64 * 2),
            p(1 + i % 3),
            vec![i as u8],
        );
    }
    g.run_until(Time::from_secs(3));
    let seqs = g.adelivered_payloads();
    for i in 1..4 {
        assert_eq!(seqs[i].len(), 10, "p{i} delivered all despite f=2 crashes");
    }
    let report = InvariantChecker::check(&g, 5);
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert!(
        g.views().iter().all(|v| v.is_empty()),
        "no membership change needed"
    );
}

/// F7 — Fig 7 (new architecture, augmented): generic broadcast between the
/// application and atomic broadcast, ordering only what conflicts.
#[test]
fn new_stack_fig7() {
    let mut cfg = StackConfig::default();
    let mut rel = ConflictRelation::none(4);
    rel.set_conflict(MessageClass(1), MessageClass(1));
    cfg.conflict = rel;
    let mut g = Group::builder()
        .members(4)
        .stack_config(cfg)
        .seed(107)
        .build();
    // Class 0 messages commute; class 1 conflict with each other only.
    for i in 0..12u32 {
        let class = MessageClass((i % 2) as u16);
        g.gbcast_at(
            Time::from_millis(1 + i as u64),
            p(i % 4),
            class,
            vec![i as u8],
        );
    }
    g.run_until(Time::from_secs(3));
    for s in &g.delivered() {
        assert_eq!(s.len(), 12);
    }
    let report = InvariantChecker::check(&g, 4);
    assert!(report.is_clean(), "{:#?}", report.violations);
}
