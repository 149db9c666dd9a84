//! The process table [`crate::Sim`] and [`crate::ExploreNet`] share:
//! who is registered, who is up, what survives a crash, and how an
//! upcall reaches an actor. Timer bookkeeping differs per host (arm ids
//! and an event heap; a bare token set), so it rides along as `T`.

use mcpaxos_actor::host::{Effects, HostCtx, Upcall};
use mcpaxos_actor::{Actor, MemStore, ProcessId, SimTime, StableStore};
use std::any::Any;
use std::collections::BTreeMap;

pub(crate) type ActorBox<M> = Box<dyn Actor<Msg = M>>;

/// Builds the stable storage for a newly registered process. The default
/// factory hands every process a fresh [`MemStore`]; install a custom one
/// with [`crate::Sim::set_storage_factory`] to back processes with a
/// write-ahead-log store instead.
pub type StorageFactory = Box<dyn FnMut(ProcessId) -> Box<dyn StableStore>>;

struct ProcNode<M, T> {
    /// `Some` exactly while the process is up.
    actor: Option<ActorBox<M>>,
    factory: Box<dyn FnMut() -> ActorBox<M>>,
    storage: Box<dyn StableStore>,
    host: T,
}

pub(crate) struct ProcTable<M, T> {
    procs: BTreeMap<ProcessId, ProcNode<M, T>>,
    storage_factory: StorageFactory,
}

impl<M: 'static, T: Default> ProcTable<M, T> {
    pub(crate) fn new() -> Self {
        ProcTable {
            procs: BTreeMap::new(),
            storage_factory: Box::new(|_| Box::new(MemStore::new())),
        }
    }

    pub(crate) fn set_storage_factory<F>(&mut self, factory: F)
    where
        F: FnMut(ProcessId) -> Box<dyn StableStore> + 'static,
    {
        self.storage_factory = Box::new(factory);
    }

    /// Registers `pid` as up, with a first actor from `factory` and
    /// storage from the storage factory. The caller runs
    /// [`Upcall::Start`].
    pub(crate) fn add_process<F>(&mut self, pid: ProcessId, mut factory: F)
    where
        F: FnMut() -> ActorBox<M> + 'static,
    {
        let node = ProcNode {
            actor: Some(factory()),
            factory: Box::new(factory),
            storage: (self.storage_factory)(pid),
            host: T::default(),
        };
        let prev = self.procs.insert(pid, node);
        assert!(prev.is_none(), "process {pid} registered twice");
    }

    pub(crate) fn is_up(&self, p: ProcessId) -> bool {
        self.procs.get(&p).is_some_and(|n| n.actor.is_some())
    }

    pub(crate) fn len(&self) -> usize {
        self.procs.len()
    }

    pub(crate) fn processes(&self) -> Vec<ProcessId> {
        self.procs.keys().copied().collect()
    }

    pub(crate) fn actor<A: Actor<Msg = M>>(&self, p: ProcessId) -> Option<&A> {
        let a: &dyn Actor<Msg = M> = self.procs.get(&p)?.actor.as_deref()?;
        let any: &dyn Any = a;
        any.downcast_ref::<A>()
    }

    pub(crate) fn storage(&self, p: ProcessId) -> Option<&(dyn StableStore + '_)> {
        self.procs.get(&p).map(|n| n.storage.as_ref())
    }

    /// The host's state for `p`, whether `p` is up or not.
    pub(crate) fn host(&self, p: ProcessId) -> Option<&T> {
        self.procs.get(&p).map(|n| &n.host)
    }

    pub(crate) fn host_mut(&mut self, p: ProcessId) -> Option<&mut T> {
        self.procs.get_mut(&p).map(|n| &mut n.host)
    }

    /// Every up process with its host state, in id order.
    pub(crate) fn up_hosts(&self) -> impl Iterator<Item = (ProcessId, &T)> {
        self.procs
            .iter()
            .filter(|(_, n)| n.actor.is_some())
            .map(|(&p, n)| (p, &n.host))
    }

    /// Crashes `p`: the actor is dropped and buffered-but-unflushed
    /// stable writes die with it (group commit's crash semantics).
    /// Returns the host state to invalidate, or `None` if `p` was not up.
    pub(crate) fn crash(&mut self, p: ProcessId) -> Option<&mut T> {
        let n = self.procs.get_mut(&p)?;
        n.actor.take()?;
        n.storage.lose_unflushed();
        Some(&mut n.host)
    }

    /// Brings a crashed `p` back up with a fresh actor from its factory;
    /// the caller runs [`Upcall::Recover`]. Returns false, changing
    /// nothing, if `p` is up or unknown.
    pub(crate) fn recover(&mut self, p: ProcessId) -> bool {
        match self.procs.get_mut(&p) {
            Some(n) if n.actor.is_none() => {
                n.actor = Some((n.factory)());
                true
            }
            _ => false,
        }
    }

    /// Runs `kind` at `pid`, buffering what the actor does into `fx`.
    /// Returns whether it ran: nothing runs if `pid` is down or unknown.
    pub(crate) fn upcall(
        &mut self,
        pid: ProcessId,
        kind: Upcall<M>,
        now: SimTime,
        random: &mut dyn FnMut() -> u64,
        fx: &mut Effects<M>,
    ) -> bool {
        let Some(node) = self.procs.get_mut(&pid) else {
            return false;
        };
        let Some(actor) = node.actor.as_deref_mut() else {
            return false;
        };
        let mut ctx = HostCtx::new(pid, now, node.storage.as_mut(), random, fx);
        kind.run(actor, &mut ctx);
        true
    }
}
