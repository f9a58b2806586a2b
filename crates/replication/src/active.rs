//! Active replication (state machine approach, §3.2.2): client requests are
//! atomically broadcast and every replica executes them in the agreed order.
//!
//! The service is generic over [`GroupTransport`], so the same replicated
//! state machine runs on the new architecture or either traditional
//! baseline — the paper's claim that active replication only needs *atomic
//! broadcast*, not any particular stack, made executable.

use bytes::Bytes;
use gcs_api::{Group, GroupTransport, StackKind};
use gcs_core::StackConfig;
use gcs_kernel::{ProcessId, Time};
use std::collections::BTreeMap;

/// A deterministic replicated state machine.
pub trait StateMachine: Default {
    /// Applies one command, returning its response.
    fn apply(&mut self, cmd: &[u8]) -> Vec<u8>;

    /// A digest of the current state (for replica-equality checks).
    fn digest(&self) -> Vec<u8>;
}

/// A serialized command (opaque to the group communication layer).
pub type Command = Vec<u8>;

/// A simple replicated key-value store.
///
/// Commands: `set <key>=<value>` and `get <key>`, both UTF-8.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    entries: BTreeMap<String, String>,
}

impl KvStore {
    /// Reads a key directly (for assertions).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, cmd: &[u8]) -> Vec<u8> {
        let text = String::from_utf8_lossy(cmd);
        if let Some(rest) = text.strip_prefix("set ") {
            if let Some((k, v)) = rest.split_once('=') {
                self.entries.insert(k.to_string(), v.to_string());
                return b"ok".to_vec();
            }
            return b"err: malformed set".to_vec();
        }
        if let Some(k) = text.strip_prefix("get ") {
            return self
                .entries
                .get(k)
                .cloned()
                .unwrap_or_default()
                .into_bytes();
        }
        b"err: unknown command".to_vec()
    }

    fn digest(&self) -> Vec<u8> {
        let mut d = Vec::new();
        for (k, v) in &self.entries {
            d.extend_from_slice(k.as_bytes());
            d.push(b'=');
            d.extend_from_slice(v.as_bytes());
            d.push(b';');
        }
        d
    }
}

/// An actively replicated service: any [`GroupTransport`] plus a replayed
/// state machine per replica.
///
/// Client requests are injected as atomic broadcasts; after the run, the
/// agreed delivery order is replayed through one state machine per replica
/// to obtain the replicated states (which must be identical on all correct
/// replicas — checked by [`replica_states`](Self::replica_states) users).
pub struct ActiveGroup<S: StateMachine, T: GroupTransport = Group> {
    group: T,
    _marker: std::marker::PhantomData<S>,
}

impl<S: StateMachine> ActiveGroup<S, Group> {
    /// Creates an actively replicated group of `n` replicas on the new
    /// architecture.
    pub fn new(n: usize, config: StackConfig, seed: u64) -> Self {
        Self::on(
            Group::builder()
                .members(n)
                .stack_config(config)
                .seed(seed)
                .build(),
        )
    }

    /// Creates `n` replicas on the given stack with its default
    /// configuration — the cross-stack comparison entry point.
    pub fn on_stack(kind: StackKind, n: usize, seed: u64) -> Self {
        Self::on(Group::builder().members(n).stack(kind).seed(seed).build())
    }
}

impl<S: StateMachine, T: GroupTransport> ActiveGroup<S, T> {
    /// Wraps an already-built transport (any stack, any topology) as an
    /// actively replicated service.
    pub fn on(group: T) -> Self {
        ActiveGroup {
            group,
            _marker: std::marker::PhantomData,
        }
    }

    /// A client sends `cmd` to replica `entry` at time `t`; the replica
    /// atomically broadcasts it (the state machine approach: every replica
    /// will execute it).
    pub fn client_request(&mut self, t: Time, entry: ProcessId, cmd: Command) {
        self.group.abcast_bytes_at(t, entry, Bytes::from(cmd));
    }

    /// Crashes a replica.
    pub fn crash_at(&mut self, t: Time, p: ProcessId) {
        self.group.crash_at(t, p);
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: Time) {
        self.group.run_until(t);
    }

    /// Access to the underlying transport (metrics, observation).
    pub fn group(&self) -> &T {
        &self.group
    }

    /// Replays the delivery order of every replica through a fresh state
    /// machine; entry `i` is replica `i`'s final state.
    pub fn replica_states(&self) -> Vec<S> {
        self.group
            .adelivered_payloads()
            .into_iter()
            .map(|cmds| {
                let mut sm = S::default();
                for c in cmds {
                    let _ = sm.apply(&c);
                }
                sm
            })
            .collect()
    }

    /// The digests of all replica states (for equality assertions).
    pub fn digests(&self) -> Vec<Vec<u8>> {
        self.replica_states().iter().map(|s| s.digest()).collect()
    }

    /// Liveness flags of the replicas.
    pub fn alive(&self) -> Vec<bool> {
        self.group.alive_flags()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_kernel::TimeDelta;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn kv_store_applies_commands() {
        let mut kv = KvStore::default();
        assert_eq!(kv.apply(b"set a=1"), b"ok");
        assert_eq!(kv.apply(b"get a"), b"1");
        assert_eq!(kv.apply(b"get missing"), b"");
        assert_eq!(kv.apply(b"nonsense"), b"err: unknown command");
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn replicas_converge_on_identical_state() {
        let mut svc: ActiveGroup<KvStore> = ActiveGroup::new(3, StackConfig::default(), 1);
        // Conflicting writes to the same key from different entry replicas:
        // total order makes the outcome identical everywhere.
        svc.client_request(Time::from_millis(1), p(0), b"set x=from-p0".to_vec());
        svc.client_request(Time::from_millis(1), p(1), b"set x=from-p1".to_vec());
        svc.client_request(Time::from_millis(2), p(2), b"set y=2".to_vec());
        svc.run_until(Time::from_secs(1));
        let states = svc.replica_states();
        assert_eq!(states[0], states[1]);
        assert_eq!(states[1], states[2]);
        assert!(states[0].get("x").is_some());
        assert_eq!(states[0].get("y"), Some("2"));
    }

    #[test]
    fn service_survives_minority_crash() {
        let mut cfg = StackConfig::default();
        cfg.monitoring_timeout = TimeDelta::from_secs(3600);
        let mut svc: ActiveGroup<KvStore> = ActiveGroup::new(3, cfg, 2);
        svc.crash_at(Time::from_millis(5), p(0));
        svc.client_request(Time::from_millis(50), p(1), b"set k=alive".to_vec());
        svc.run_until(Time::from_secs(2));
        let states = svc.replica_states();
        assert_eq!(states[1].get("k"), Some("alive"));
        assert_eq!(states[1], states[2]);
    }

    /// The cross-stack comparison the unified transport enables: the same
    /// client workload on all three architectures converges every stack's
    /// replicas onto the same final state.
    #[test]
    fn same_workload_converges_on_every_stack() {
        // The stacks may legally order the racing `set a=…` pair differently
        // (total order is per group, not across architectures), but within
        // each stack every replica agrees and both keys are applied.
        for kind in StackKind::ALL {
            let mut svc: ActiveGroup<KvStore> = ActiveGroup::on_stack(kind, 3, 5);
            svc.client_request(Time::from_millis(1), p(0), b"set a=1".to_vec());
            svc.client_request(Time::from_millis(1), p(1), b"set a=2".to_vec());
            svc.client_request(Time::from_millis(3), p(2), b"set b=3".to_vec());
            svc.run_until(Time::from_secs(2));
            let states = svc.replica_states();
            assert_eq!(states[0], states[1], "{}", kind.name());
            assert_eq!(states[1], states[2], "{}", kind.name());
            assert_eq!(states[0].get("b"), Some("3"), "{}", kind.name());
            assert!(
                matches!(states[0].get("a"), Some("1") | Some("2")),
                "{}: racing writes resolved to one of the two values",
                kind.name()
            );
            assert_eq!(states[0].len(), 2, "{}", kind.name());
        }
    }

    /// A state machine driven directly over a concrete transport type (no
    /// enum indirection): the service is generic over `GroupTransport`.
    #[test]
    fn runs_over_a_concrete_transport_type() {
        use gcs_core::GroupSim;
        let sim = GroupSim::new(3, StackConfig::default(), 11);
        let mut svc: ActiveGroup<KvStore, GroupSim> = ActiveGroup::on(sim);
        svc.client_request(Time::from_millis(1), p(0), b"set x=y".to_vec());
        svc.run_until(Time::from_secs(1));
        let states = svc.replica_states();
        assert_eq!(states[0].get("x"), Some("y"));
        assert_eq!(states[0], states[2]);
    }
}
