//! The protocol-invariant oracle, the repository's one property checker: an
//! online trace observer that machine-checks the paper's group-communication
//! properties on every run.
//!
//! The paper's central claim is that the modular new architecture provides
//! the *same* guarantees — agreement, total order, view synchrony — as the
//! monolithic Isis-style and token-ring baselines. Fingerprint equality can
//! only say a run *changed*; this module says whether a run was *correct*:
//! feed an [`InvariantChecker`] the neutral [`TransportDelivery`] stream,
//! the installed [`View`]s and the incarnation resets of any
//! [`GroupTransport`], and [`finalize`](InvariantChecker::finalize) reports
//! structured [`Violation`]s instead of a boolean.
//!
//! ## Checked properties
//!
//! * **No duplication** — no incarnation of a process delivers the same
//!   message twice.
//! * **FIFO per sender (generic)** — generic deliveries from one sender
//!   arrive in send order at every process, whatever their class (generic
//!   broadcast is FIFO, paper footnote 9).
//! * **Total order (abcast)** — no two incarnations deliver two atomic
//!   messages in opposite relative orders.
//! * **Conflict order (generic)** — no two incarnations g-deliver two
//!   messages whose classes conflict, by the group's own
//!   [relation](GroupTransport::conflicts), in opposite relative orders.
//! * **Gap-freedom** — no incarnation skips a message *inside* its delivery
//!   window: if some witness delivered `a … m … b` and this incarnation
//!   delivered `a` directly followed by `b` without ever delivering `m`, a
//!   message was lost mid-stream.
//! * **Uniform agreement among survivors** — the final incarnations of the
//!   surviving members end at the same point of the stream; a survivor whose
//!   delivery sequence stops strictly short of another's missed messages.
//!   The founding survivors that were never reset also *begin* at the same
//!   point: with total order, gap-freedom and the common end, their atomic
//!   streams are equal. Generic (non-atomic) deliveries have no stream to
//!   end, so there the property is on the *set*: the same founding
//!   survivors have g-delivered the same messages — a message one of them
//!   fast-delivered and another never got is a uniformity hole.
//! * **View synchrony** — no message is delivered in different views by two
//!   processes that both installed both views (same-view delivery, §4.4).
//!
//! ## Incarnations
//!
//! The traditional stacks *kill* wrongly excluded processes, which may later
//! re-join as logically fresh members with a state transfer (§4.3). A
//! rejoined process legitimately resumes delivering at the group's current
//! position — a raw per-process comparison would misread that as a gap. The
//! checker therefore splits each process's stream at its
//! [`resets`](GroupTransport::resets) and compares *incarnations*: each one
//! must individually honor the properties, and only the final incarnation of
//! a surviving member owes tail agreement. Joiners and rejoined
//! incarnations start mid-stream and owe no common head.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use gcs_kernel::{DeliveryKind, MessageClass, ProcessId, Time, View};

use crate::{GroupTransport, Observation, TransportDelivery};

/// Which protocol property a [`Violation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A survivor's delivery sequence ends strictly short of another
    /// survivor's, two founding survivors that were never reset begin their
    /// atomic streams at different messages, or a survivor never
    /// g-delivered a generic message that another did (uniform agreement
    /// among survivors).
    Agreement,
    /// Two incarnations delivered two atomic messages, or g-delivered two
    /// messages of conflicting classes, in opposite orders.
    TotalOrder,
    /// A message was delivered in different views by two processes that both
    /// installed both views.
    ViewSynchrony,
    /// Generic deliveries from one sender arrived out of send order (any
    /// class: generic broadcast is FIFO per sender).
    FifoOrder,
    /// An incarnation skipped a message inside its delivery window.
    GapFreedom,
    /// An incarnation delivered the same message twice.
    Duplication,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::Agreement => "agreement",
            InvariantKind::TotalOrder => "total-order",
            InvariantKind::ViewSynchrony => "view-synchrony",
            InvariantKind::FifoOrder => "fifo-order",
            InvariantKind::GapFreedom => "gap-freedom",
            InvariantKind::Duplication => "duplication",
        };
        f.write_str(name)
    }
}

/// One concrete invariant violation found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The property broken.
    pub kind: InvariantKind,
    /// Human-readable evidence: which processes and messages.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// The oracle's verdict on one run.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Every violation found, in deterministic order (capped at
    /// [`MAX_VIOLATIONS`] to bound pathological traces).
    pub violations: Vec<Violation>,
    /// Deliveries the checker consumed.
    pub deliveries: usize,
    /// Distinct atomic messages observed across all processes.
    pub atomic_messages: usize,
    /// Process incarnations compared (processes plus kill/re-join rebirths).
    pub incarnations: usize,
}

/// Upper bound on reported violations: a systematically broken trace
/// produces thousands of identical findings; the first few dozen carry all
/// the signal.
pub const MAX_VIOLATIONS: usize = 64;

impl OracleReport {
    /// `true` when every checked property held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Message identity in the checker's vocabulary: `(sender, seq)` is unique
/// within one stack run.
type Key = (ProcessId, u64);

fn key_str(k: Key) -> String {
    format!("({},{})", k.0.index(), k.1)
}

/// Where each message of a delivery stream stands in it.
fn positions(stream: impl Iterator<Item = Key>) -> HashMap<Key, usize> {
    stream.enumerate().map(|(i, k)| (k, i)).collect()
}

/// One incarnation's projected delivery streams.
#[derive(Default)]
struct Incarnation {
    /// Process index.
    proc: usize,
    /// Incarnation number within the process (0 = original).
    life: usize,
    /// Atomic deliveries, in delivery order.
    atomic: Vec<Key>,
    /// View tag of each atomic delivery (first delivery wins).
    atomic_view: HashMap<Key, u64>,
    /// Generic deliveries with their classes, in delivery order.
    generic: Vec<(Key, MessageClass)>,
    /// The last generic sequence number delivered from each sender.
    last_generic: HashMap<ProcessId, u64>,
    /// Every key delivered (any kind), for duplication checking.
    seen: HashSet<(Key, bool)>,
}

/// The online invariant oracle. Feed it deliveries, view installations and
/// incarnation resets (in any order), then [`finalize`](Self::finalize) with
/// the liveness flags and the conflict relation.
pub struct InvariantChecker {
    founding: usize,
    deliveries: Vec<TransportDelivery>,
    views: Vec<Vec<View>>,
    resets: Vec<Vec<Time>>,
    violations: Vec<Violation>,
}

impl InvariantChecker {
    /// A checker for a group of `total` processes of which the first
    /// `founding` were members from the start (the rest are joiners, which
    /// owe nothing until they install their first view).
    pub fn new(founding: usize, total: usize) -> Self {
        InvariantChecker {
            founding,
            deliveries: Vec::new(),
            views: vec![Vec::new(); total],
            resets: vec![Vec::new(); total],
            violations: Vec::new(),
        }
    }

    /// Runs the whole pipeline against a transport: feed the checker from
    /// one [observation pass](GroupTransport::observe) over its trace, and
    /// finalize with its liveness flags and its
    /// [conflict relation](GroupTransport::conflicts). `founding` is the
    /// number of founding members (process ids `0..founding`).
    pub fn check(transport: &dyn GroupTransport, founding: usize) -> OracleReport {
        let mut c = InvariantChecker::new(founding, transport.process_count());
        transport.observe(&mut |time, proc, o| match o {
            Observation::View { id, members } => c.observe_view(
                proc,
                View {
                    id,
                    members: members.to_vec(),
                },
            ),
            Observation::Reset => c.observe_reset(proc, time),
            o => c.deliveries.extend(o.delivery(time, proc)),
        });
        c.finalize(&transport.alive_flags(), |a, b| transport.conflicts(a, b))
    }

    /// Feeds one delivery record (call in global delivery order).
    pub fn observe_delivery(&mut self, d: TransportDelivery) {
        self.deliveries.push(d);
    }

    /// Feeds one view installation at `proc` (call in installation order
    /// per process).
    pub fn observe_view(&mut self, proc: ProcessId, view: View) {
        if let Some(vs) = self.views.get_mut(proc.index()) {
            vs.push(view);
        }
    }

    /// Feeds one incarnation reset: `proc` was killed/excluded at `t` and
    /// deliveries strictly after `t` belong to a fresh incarnation.
    pub fn observe_reset(&mut self, proc: ProcessId, t: Time) {
        if let Some(rs) = self.resets.get_mut(proc.index()) {
            rs.push(t);
        }
    }

    fn violate(&mut self, kind: InvariantKind, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { kind, detail });
        }
    }

    /// Splits the observed deliveries into per-incarnation streams, checking
    /// the online properties (duplication, generic FIFO) along the way.
    fn build_incarnations(&mut self) -> Vec<Incarnation> {
        let nprocs = self.views.len();
        let mut resets = self.resets.clone();
        for r in &mut resets {
            r.sort_unstable();
        }
        // incs[proc] = streams of that process, one per incarnation.
        let mut incs: Vec<Vec<Incarnation>> = (0..nprocs)
            .map(|p| {
                (0..resets[p].len() + 1)
                    .map(|life| Incarnation {
                        proc: p,
                        life,
                        ..Incarnation::default()
                    })
                    .collect()
            })
            .collect();
        let deliveries = std::mem::take(&mut self.deliveries);
        for d in &deliveries {
            let p = d.proc.index();
            if p >= nprocs {
                continue;
            }
            // Deliveries at exactly the reset time still belong to the dying
            // incarnation (a kill-flush delivers before the kill marker).
            let life = resets[p].iter().filter(|&&r| r < d.time).count();
            let inc = &mut incs[p][life];
            let key: Key = (d.sender, d.seq);
            let atomic = d.kind == DeliveryKind::Atomic;
            if !inc.seen.insert((key, atomic)) {
                self.violate(
                    InvariantKind::Duplication,
                    format!("p{p}(life {life}) delivered message {} twice", key_str(key)),
                );
                continue;
            }
            if atomic {
                inc.atomic.push(key);
                inc.atomic_view.entry(key).or_insert(d.view);
            } else {
                if let Some(last) = inc.last_generic.insert(d.sender, d.seq) {
                    if d.seq <= last {
                        self.violate(
                            InvariantKind::FifoOrder,
                            format!(
                                "p{p}(life {life}) g-delivered seq {} from p{} after seq {last}",
                                d.seq,
                                d.sender.index(),
                            ),
                        );
                    }
                }
                inc.generic.push((key, d.class));
            }
        }
        self.deliveries = deliveries;
        incs.into_iter().flatten().collect()
    }

    /// The set of view ids a process installed (plus the implicit initial
    /// view for founding members).
    fn installed_ids(&self, proc: usize) -> BTreeSet<u64> {
        let mut ids: BTreeSet<u64> = self.views[proc].iter().map(|v| v.id).collect();
        if proc < self.founding {
            ids.insert(0);
        }
        ids
    }

    /// Survivor detection: alive, still a member by its own last installed
    /// view, and not holding a stale view while the group moved on. A
    /// founding member that never installed a view counts only when *nobody*
    /// did (a steady run without membership changes) — once view changes
    /// happened, a view-less process was left behind by one of them (e.g.
    /// an Isis removal target never installs the view that excludes it).
    fn survivors(&self, alive: &[bool]) -> Vec<usize> {
        let nprocs = self.views.len();
        let candidate = |p: usize| -> Option<Option<u64>> {
            if !alive.get(p).copied().unwrap_or(false) {
                return None;
            }
            match self.views[p].last() {
                None => (p < self.founding).then_some(None),
                Some(v) => v.contains(ProcessId::new(p as u32)).then_some(Some(v.id)),
            }
        };
        let vids: Vec<Option<Option<u64>>> = (0..nprocs).map(candidate).collect();
        let max_vid = vids.iter().flatten().flatten().max().copied();
        (0..nprocs)
            .filter(|&p| match vids[p] {
                None => false,
                Some(None) => max_vid.is_none(),
                Some(Some(v)) => Some(v) == max_vid,
            })
            .collect()
    }

    /// Consumes the checker and reports every violation found. `alive`
    /// holds the liveness flags, one per process; `conflicts` is the
    /// group's conflict relation over message classes, which orders generic
    /// deliveries.
    pub fn finalize(
        mut self,
        alive: &[bool],
        conflicts: impl Fn(MessageClass, MessageClass) -> bool,
    ) -> OracleReport {
        let incs = self.build_incarnations();
        let n_incs = incs.len();

        // Position maps, shared by the order/gap/agreement passes.
        let pos: Vec<_> = incs
            .iter()
            .map(|inc| positions(inc.atomic.iter().copied()))
            .collect();

        // Total order: for every pair, the common messages appear in the
        // same relative order.
        for a in 0..n_incs {
            if incs[a].atomic.is_empty() {
                continue;
            }
            for b in (a + 1)..n_incs {
                let mut last: Option<(usize, Key)> = None;
                for &k in &incs[a].atomic {
                    let Some(&i) = pos[b].get(&k) else { continue };
                    if let Some((last_i, last_k)) = last {
                        if i < last_i {
                            self.violate(
                                InvariantKind::TotalOrder,
                                format!(
                                    "p{}(life {}) and p{}(life {}) deliver {} and {} in opposite orders",
                                    incs[a].proc,
                                    incs[a].life,
                                    incs[b].proc,
                                    incs[b].life,
                                    key_str(last_k),
                                    key_str(k),
                                ),
                            );
                            break;
                        }
                    }
                    last = Some((i, k));
                }
            }
        }

        // Conflict order: walking a's generic stream, `furthest[c]` is the
        // latest position in b of a message of class c that a delivered
        // earlier. A message that b delivered before such a message of a
        // conflicting class was ordered the other way round at b.
        let classes: BTreeSet<MessageClass> = incs
            .iter()
            .flat_map(|inc| inc.generic.iter().map(|&(_, c)| c))
            .collect();
        let classes: Vec<MessageClass> = classes.into_iter().collect();
        let relation: Vec<Vec<bool>> = classes
            .iter()
            .map(|&a| classes.iter().map(|&b| conflicts(a, b)).collect())
            .collect();
        let gpos: Vec<_> = incs
            .iter()
            .map(|inc| positions(inc.generic.iter().map(|&(k, _)| k)))
            .collect();
        for a in 0..n_incs {
            if incs[a].generic.is_empty() {
                continue;
            }
            for b in (a + 1)..n_incs {
                let mut furthest: Vec<Option<(usize, Key)>> = vec![None; classes.len()];
                'walk: for &(k, c) in &incs[a].generic {
                    let Some(&j) = gpos[b].get(&k) else { continue };
                    let ci = classes.binary_search(&c).expect("a class of the trace");
                    for (&conflicting, f) in relation[ci].iter().zip(&furthest) {
                        let Some((fj, fk)) = *f else { continue };
                        if conflicting && fj > j {
                            self.violate(
                                InvariantKind::TotalOrder,
                                format!(
                                    "p{}(life {}) and p{}(life {}) g-deliver conflicting {} and {} \
                                     in opposite orders",
                                    incs[a].proc,
                                    incs[a].life,
                                    incs[b].proc,
                                    incs[b].life,
                                    key_str(fk),
                                    key_str(k),
                                ),
                            );
                            break 'walk;
                        }
                    }
                    if furthest[ci].is_none_or(|(fj, _)| j > fj) {
                        furthest[ci] = Some((j, k));
                    }
                }
            }
        }

        // Gap-freedom: incarnation I skipped message m if a witness W
        // delivered a … m … b while I delivered a directly followed by b and
        // never delivered m at all. This is direct evidence — no merged
        // global order (whose tie-breaks would invent false gaps around
        // messages only a crashed process delivered) is needed.
        for i in 0..n_incs {
            let atomic = &incs[i].atomic;
            if atomic.is_empty() {
                continue;
            }
            let mine: HashSet<Key> = atomic.iter().copied().collect();
            'outer: for w in 0..n_incs {
                if w == i {
                    continue;
                }
                for pair in atomic.windows(2) {
                    let (Some(&wa), Some(&wb)) = (pos[w].get(&pair[0]), pos[w].get(&pair[1]))
                    else {
                        continue;
                    };
                    if wb <= wa + 1 {
                        continue;
                    }
                    for &m in &incs[w].atomic[wa + 1..wb] {
                        if !mine.contains(&m) {
                            self.violate(
                                InvariantKind::GapFreedom,
                                format!(
                                    "p{}(life {}) delivered {} then {} but skipped {} (witness p{})",
                                    incs[i].proc,
                                    incs[i].life,
                                    key_str(pair[0]),
                                    key_str(pair[1]),
                                    key_str(m),
                                    incs[w].proc,
                                ),
                            );
                            continue 'outer;
                        }
                    }
                }
            }
        }

        // Uniform agreement among survivors: the *final* incarnations of the
        // surviving members end at the same message. (Scenario horizons give
        // runs ample quiescence time, so an in-flight tail is a real miss.)
        let survivors = self.survivors(alive);
        let mut finals: Vec<usize> = Vec::new();
        for &p in &survivors {
            // Index of p's last incarnation in the flattened list.
            if let Some(idx) = incs
                .iter()
                .enumerate()
                .filter(|(_, inc)| inc.proc == p)
                .map(|(idx, _)| idx)
                .next_back()
            {
                // An empty final incarnation is meaningful only if the
                // process never reset (a late rejoiner may simply have seen
                // no post-rejoin traffic).
                if !incs[idx].atomic.is_empty() || incs[idx].life == 0 {
                    finals.push(idx);
                }
            }
        }
        for (ai, &a) in finals.iter().enumerate() {
            for &b in finals.iter().skip(ai + 1) {
                let (la, lb) = (incs[a].atomic.last(), incs[b].atomic.last());
                let stopped_short = match (la, lb) {
                    (None, None) => false,
                    (Some(&ka), Some(&kb)) => ka != kb,
                    // One founding survivor delivered nothing while another
                    // delivered the stream.
                    _ => true,
                };
                if stopped_short {
                    self.violate(
                        InvariantKind::Agreement,
                        format!(
                            "survivors p{} and p{} end their atomic streams at {} vs {}",
                            incs[a].proc,
                            incs[b].proc,
                            la.map_or("nothing".to_string(), |&k| key_str(k)),
                            lb.map_or("nothing".to_string(), |&k| key_str(k)),
                        ),
                    );
                }
            }
        }

        // The founding survivors that were never reset (a joiner or a
        // rejoined incarnation legitimately starts from a state transfer
        // instead) begin their atomic streams at the same message and
        // g-delivered the same set.
        let founders: Vec<&Incarnation> = incs
            .iter()
            .filter(|inc| {
                inc.proc < self.founding
                    && self.resets[inc.proc].is_empty()
                    && survivors.contains(&inc.proc)
            })
            .collect();
        let mut heads = founders
            .iter()
            .filter_map(|inc| Some((inc.proc, *inc.atomic.first()?)));
        if let Some((first, head)) = heads.next() {
            for (p, k) in heads.filter(|&(_, k)| k != head) {
                self.violate(
                    InvariantKind::Agreement,
                    format!(
                        "survivors p{first} and p{p} begin their atomic streams at {} vs {}",
                        key_str(head),
                        key_str(k),
                    ),
                );
            }
        }
        let generic: Vec<(usize, BTreeSet<Key>)> = founders
            .iter()
            .map(|inc| (inc.proc, inc.generic.iter().map(|&(k, _)| k).collect()))
            .collect();
        let everything: BTreeSet<Key> = generic.iter().flat_map(|(_, set)| set).copied().collect();
        for (p, mine) in &generic {
            let mut missing = everything.difference(mine);
            if let Some(&k) = missing.next() {
                self.violate(
                    InvariantKind::Agreement,
                    format!(
                        "survivor p{p} never g-delivered {} ({} of the generic messages other \
                         survivors delivered are missing)",
                        key_str(k),
                        1 + missing.count(),
                    ),
                );
            }
        }

        // View synchrony: a message delivered under view v1 at p and v2 at q
        // spans a view change if both p and q installed both views.
        let mut tags: HashMap<Key, Vec<(usize, u64)>> = HashMap::new();
        for inc in &incs {
            for (&k, &v) in &inc.atomic_view {
                tags.entry(k).or_default().push((inc.proc, v));
            }
        }
        let mut keys: Vec<Key> = tags.keys().copied().collect();
        keys.sort_unstable();
        'keys: for k in keys {
            let mut by_proc = tags[&k].clone();
            by_proc.sort_unstable();
            for (i, &(p, v1)) in by_proc.iter().enumerate() {
                for &(q, v2) in by_proc.iter().skip(i + 1) {
                    if v1 == v2 || p == q {
                        continue;
                    }
                    let ip = self.installed_ids(p);
                    let iq = self.installed_ids(q);
                    if ip.contains(&v1) && ip.contains(&v2) && iq.contains(&v1) && iq.contains(&v2)
                    {
                        self.violate(
                            InvariantKind::ViewSynchrony,
                            format!(
                                "message {} delivered in view {v1} at p{p} but view {v2} at p{q} \
                                 (both installed both views)",
                                key_str(k),
                            ),
                        );
                        continue 'keys;
                    }
                }
            }
        }

        let atomic_messages = {
            let mut all: BTreeSet<Key> = BTreeSet::new();
            for inc in &incs {
                all.extend(inc.atomic.iter().copied());
            }
            all.len()
        };
        OracleReport {
            violations: self.violations,
            deliveries: self.deliveries.len(),
            atomic_messages,
            incarnations: n_incs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_kernel::PayloadRef;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn atomic(t: u64, proc: u32, sender: u32, seq: u64, view: u64) -> TransportDelivery {
        TransportDelivery {
            time: Time::from_millis(t),
            proc: p(proc),
            sender: p(sender),
            seq,
            kind: DeliveryKind::Atomic,
            class: MessageClass::ABCAST,
            view,
            payload: PayloadRef::EMPTY,
        }
    }

    fn gdeliver(proc: u32, sender: u32, seq: u64, class: MessageClass) -> TransportDelivery {
        TransportDelivery {
            kind: DeliveryKind::GenericOrdered,
            class,
            ..atomic(1, proc, sender, seq, 0)
        }
    }

    fn rbcast(t: u64, proc: u32, sender: u32, seq: u64) -> TransportDelivery {
        TransportDelivery {
            kind: DeliveryKind::GenericFast,
            class: MessageClass::RBCAST,
            ..atomic(t, proc, sender, seq, 0)
        }
    }

    /// The conflict relation where everything conflicts.
    fn every(_: MessageClass, _: MessageClass) -> bool {
        true
    }

    fn kinds(r: &OracleReport) -> Vec<InvariantKind> {
        r.violations.iter().map(|v| v.kind).collect()
    }

    /// The oracle must not be vacuously green: a fully consistent trace
    /// yields zero violations, and each seeded fault below yields exactly
    /// the targeted one.
    #[test]
    fn clean_trace_has_no_violations() {
        let mut c = InvariantChecker::new(2, 2);
        for proc in 0..2 {
            c.observe_delivery(atomic(1 + proc as u64, proc, 0, 0, 0));
            c.observe_delivery(atomic(3 + proc as u64, proc, 1, 0, 0));
            c.observe_delivery(atomic(5 + proc as u64, proc, 0, 1, 0));
        }
        let r = c.finalize(&[true, true], every);
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.atomic_messages, 3);
        assert_eq!(r.incarnations, 2);
    }

    #[test]
    fn reordered_delivery_fires_total_order() {
        let mut c = InvariantChecker::new(2, 2);
        // p0: a then b — p1: b then a.
        c.observe_delivery(atomic(1, 0, 0, 0, 0));
        c.observe_delivery(atomic(2, 0, 1, 0, 0));
        c.observe_delivery(atomic(1, 1, 1, 0, 0));
        c.observe_delivery(atomic(2, 1, 0, 0, 0));
        let r = c.finalize(&[true, true], every);
        assert!(
            kinds(&r).contains(&InvariantKind::TotalOrder),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn dropped_message_fires_gap_freedom() {
        let mut c = InvariantChecker::new(2, 2);
        // p0 delivers a, m, b; p1 delivers a, b — m vanished mid-window.
        for (seq, t) in [(0u64, 1u64), (1, 2), (2, 3)] {
            c.observe_delivery(atomic(t, 0, 0, seq, 0));
        }
        c.observe_delivery(atomic(1, 1, 0, 0, 0));
        c.observe_delivery(atomic(3, 1, 0, 2, 0));
        let r = c.finalize(&[true, true], every);
        assert!(
            kinds(&r).contains(&InvariantKind::GapFreedom),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn survivor_stopping_short_fires_agreement() {
        let mut c = InvariantChecker::new(2, 2);
        // Both survive, but p1's stream ends one message early.
        for (seq, t) in [(0u64, 1u64), (1, 2), (2, 3)] {
            c.observe_delivery(atomic(t, 0, 0, seq, 0));
        }
        c.observe_delivery(atomic(1, 1, 0, 0, 0));
        c.observe_delivery(atomic(2, 1, 0, 1, 0));
        let r = c.finalize(&[true, true], every);
        assert!(
            kinds(&r).contains(&InvariantKind::Agreement),
            "{:?}",
            r.violations
        );
        // A *dead* process stopping early is fine.
        let mut c = InvariantChecker::new(2, 2);
        for (seq, t) in [(0u64, 1u64), (1, 2), (2, 3)] {
            c.observe_delivery(atomic(t, 0, 0, seq, 0));
        }
        c.observe_delivery(atomic(1, 1, 0, 0, 0));
        let r = c.finalize(&[true, false], every);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn missing_generic_delivery_fires_agreement() {
        // Three founders g-deliver (0,0); p2 never gets (1,0) — say its copy
        // died with the origin and nobody relayed it.
        let feed = |c: &mut InvariantChecker| {
            for proc in 0..3 {
                c.observe_delivery(rbcast(1, proc, 0, 0));
            }
            c.observe_delivery(rbcast(2, 0, 1, 0));
            c.observe_delivery(rbcast(2, 1, 1, 0));
        };
        let mut c = InvariantChecker::new(3, 3);
        feed(&mut c);
        let r = c.finalize(&[true, true, true], every);
        assert_eq!(kinds(&r), vec![InvariantKind::Agreement]);
        let detail = &r.violations[0].detail;
        assert!(
            detail.contains("p2") && detail.contains("(1,0)"),
            "{detail}"
        );
        // Once p2 has it too, the run is clean.
        let mut c = InvariantChecker::new(3, 3);
        feed(&mut c);
        c.observe_delivery(rbcast(0, 2, 1, 0));
        assert!(c.finalize(&[true, true, true], every).is_clean());
        // A dead process, a joiner and a reset incarnation owe nothing.
        let mut c = InvariantChecker::new(3, 3);
        feed(&mut c);
        assert!(c.finalize(&[true, true, false], every).is_clean());
        let mut c = InvariantChecker::new(2, 3);
        feed(&mut c);
        assert!(c.finalize(&[true, true, true], every).is_clean());
        let mut c = InvariantChecker::new(3, 3);
        feed(&mut c);
        c.observe_reset(p(2), Time::from_millis(1));
        assert!(c.finalize(&[true, true, true], every).is_clean());
    }

    #[test]
    fn view_spanning_delivery_fires_view_synchrony() {
        let mut c = InvariantChecker::new(2, 2);
        // Both processes install views 0 (implicit) and 1, but the same
        // message is delivered pre-change at p0 and post-change at p1.
        c.observe_delivery(atomic(1, 0, 0, 0, 0));
        c.observe_delivery(atomic(2, 1, 0, 0, 1));
        for proc in 0..2u32 {
            c.observe_view(
                p(proc),
                View {
                    id: 1,
                    members: vec![p(0), p(1)],
                },
            );
        }
        let r = c.finalize(&[true, true], every);
        assert!(
            kinds(&r).contains(&InvariantKind::ViewSynchrony),
            "{:?}",
            r.violations
        );
        // Without the joint installation there is no violation: a process
        // that never saw view 1 cannot span it.
        let mut c = InvariantChecker::new(2, 2);
        c.observe_delivery(atomic(1, 0, 0, 0, 0));
        c.observe_delivery(atomic(2, 1, 0, 0, 1));
        c.observe_view(
            p(1),
            View {
                id: 1,
                members: vec![p(0), p(1)],
            },
        );
        let r = c.finalize(&[true, true], every);
        assert!(
            !kinds(&r).contains(&InvariantKind::ViewSynchrony),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn duplicate_delivery_fires_duplication() {
        let mut c = InvariantChecker::new(1, 1);
        c.observe_delivery(atomic(1, 0, 0, 0, 0));
        c.observe_delivery(atomic(2, 0, 0, 0, 0));
        let r = c.finalize(&[true], every);
        assert_eq!(kinds(&r), vec![InvariantKind::Duplication]);
    }

    #[test]
    fn generic_out_of_order_fires_fifo_in_every_class() {
        for class in [MessageClass::RBCAST, MessageClass(MessageClass::USER_BASE)] {
            let mut c = InvariantChecker::new(1, 1);
            c.observe_delivery(gdeliver(0, 0, 1, class));
            c.observe_delivery(gdeliver(0, 0, 0, class));
            let r = c.finalize(&[true], every);
            assert_eq!(kinds(&r), vec![InvariantKind::FifoOrder], "{class:?}");
        }
    }

    #[test]
    fn incarnation_reset_absolves_the_rejoined_stream() {
        // p1 is killed after one delivery and rejoins at the group's
        // current position: without the reset this is a gap + an agreement
        // mismatch; with it, both incarnations are individually clean, and
        // the second, which starts mid-stream, owes no common head.
        let mut c = InvariantChecker::new(2, 2);
        for (seq, t) in [(0u64, 1u64), (1, 2), (2, 3), (3, 4)] {
            c.observe_delivery(atomic(t, 0, 0, seq, 0));
        }
        c.observe_delivery(atomic(1, 1, 0, 0, 0));
        // …killed at t=2, rejoined, resumes at seq 3.
        c.observe_delivery(atomic(4, 1, 0, 3, 0));
        let no_reset = {
            let mut c2 = InvariantChecker::new(2, 2);
            c2.observe_delivery(atomic(1, 1, 0, 0, 0));
            c2.observe_delivery(atomic(4, 1, 0, 3, 0));
            for (seq, t) in [(0u64, 1u64), (1, 2), (2, 3), (3, 4)] {
                c2.observe_delivery(atomic(t, 0, 0, seq, 0));
            }
            c2.finalize(&[true, true], every)
        };
        assert!(
            kinds(&no_reset).contains(&InvariantKind::GapFreedom),
            "{:?}",
            no_reset.violations
        );
        c.observe_reset(p(1), Time::from_millis(2));
        let r = c.finalize(&[true, true], every);
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.incarnations, 3);
    }

    #[test]
    fn joiner_suffix_window_is_clean() {
        let mut c = InvariantChecker::new(2, 3);
        for (seq, t) in [(0u64, 1u64), (1, 2), (2, 3)] {
            c.observe_delivery(atomic(t, 0, 0, seq, 0));
            c.observe_delivery(atomic(t, 1, 0, seq, 0));
        }
        // The joiner p2 delivers only the suffix, from its join on: it owes
        // no common head.
        c.observe_delivery(atomic(3, 2, 0, 2, 1));
        for proc in 0..3u32 {
            c.observe_view(
                p(proc),
                View {
                    id: 1,
                    members: vec![p(0), p(1), p(2)],
                },
            );
        }
        let r = c.finalize(&[true, true, true], every);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn survivor_missing_the_stream_head_fires_agreement() {
        // p1 delivers everything p0 does but the first message: no gap
        // inside its window, the same tail — only the head is missing.
        let mut c = InvariantChecker::new(2, 2);
        for (seq, t) in [(0u64, 1u64), (1, 2), (2, 3)] {
            c.observe_delivery(atomic(t, 0, 0, seq, 0));
            if seq > 0 {
                c.observe_delivery(atomic(t, 1, 0, seq, 0));
            }
        }
        let r = c.finalize(&[true, true], every);
        assert_eq!(kinds(&r), vec![InvariantKind::Agreement]);
        assert!(
            r.violations[0].detail.contains("begin"),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn only_conflicting_inversions_are_flagged() {
        // p0 g-delivers b1 b2 a1 a2, p1 b2 b1 a2 a1: both pairs are
        // inverted, but only class `a` conflicts with itself. Ignoring the
        // relation would report the b pair, which comes first.
        let (a, b) = (MessageClass(MessageClass::USER_BASE), MessageClass(9));
        let mut c = InvariantChecker::new(2, 2);
        for (proc, order) in [(0, [2, 3, 0, 1]), (1, [3, 2, 1, 0])] {
            for sender in order {
                let class = if sender < 2 { a } else { b };
                c.observe_delivery(gdeliver(proc, sender, 0, class));
            }
        }
        let r = c.finalize(&[true, true], |x, y| x == a && y == a);
        assert_eq!(kinds(&r), vec![InvariantKind::TotalOrder]);
        let detail = &r.violations[0].detail;
        assert!(detail.contains("(0,0) and (1,0)"), "{detail}");
    }
}
