//! Dependence tracking and the Task Dependence Graph (TDG).
//!
//! # Dependence rule
//!
//! Every region has a **dependence frontier**: the accesses a later task
//! could still have to wait for — the region's last writer plus the
//! readers admitted since. Every access names a whole region. When a task
//! is submitted, each of its accesses is *admitted* to the frontier of its
//! region ([`TaskGraph::submit_batch`]):
//!
//! 1. every frontier entry the access conflicts with (at least one of the
//!    two a writer — read-after-write, write-after-read and
//!    write-after-write) whose task has not finished becomes a
//!    predecessor: **one edge per dependence**, however many entries of
//!    that task the access meets;
//! 2. a write **drops every entry of the frontier**: it covers the whole
//!    region. This is sound because any later access that conflicts with
//!    a dropped entry also conflicts with the write that dropped it, and
//!    the writing task already waits on the dropped entry's task — so the
//!    order is kept transitively;
//! 3. the access becomes an entry itself.
//!
//! An inout chain therefore wires one edge per link (member *i* waits on
//! member *i − 1*, not on all *i* live earlier members), and the frontier
//! of a chain's region holds one entry. Entries found finished while
//! wiring are dropped on the spot, and a frontier that only ever grows —
//! readers of a region nobody writes — is compacted (finished entries
//! removed) whenever it doubles, so it stays O(live accessors) however
//! many tasks read the region. A task becomes ready when all its
//! predecessors have finished; the scheduler then moves it to the Ready
//! Queue, exactly as described in §II-C of the paper.
//!
//! # Concurrency model
//!
//! The graph is engineered so that the steady-state hot path — a worker
//! finishing a task and releasing its successors — touches **only its own
//! node and its successors**:
//!
//! * task nodes live in a **sharded slab** addressed by **generational
//!   slot ids**: a [`TaskId`] packs the shard, the slot index within the
//!   shard, and the slot's generation into one `u64` (see the [`TaskId`]
//!   docs for the exact bit layout). A lookup is a bounds check plus a
//!   generation compare — no hashing — under a brief per-shard read lock;
//!   inserts and slot frees take a per-shard write lock, and
//!   [`TaskGraph::submit_batch`] takes each write lock **once per batch**,
//!   not once per task. Shards are chosen round-robin by the graph's
//!   submission sequence counter, so consecutive submissions spread across
//!   shards deterministically;
//! * every node carries an **atomic `unresolved` counter** and an atomic
//!   lifecycle state; releasing a successor is one `fetch_sub`;
//! * the per-region frontiers are sharded by region id and touched **only
//!   by permit holders** (submitters, [`TaskGraph::forget_region`]) and the
//!   gauges: a finishing task never looks at them, takes none of their
//!   locks and frees nothing per access. Whether a frontier entry is still a
//!   dependence is answered by the entry's task id — a retired id fails
//!   the generation compare and reads "gone = finished";
//! * the submission ↔ completion race is resolved with a per-node
//!   *closed successor list*: [`TaskGraph::finish`] closes the list before
//!   releasing, and a submitter that finds the list already closed knows
//!   the dependence is already satisfied. A submission guard (the node's
//!   `unresolved` starts at 1) keeps a task from becoming ready while its
//!   edges are still being registered; whoever performs the final decrement
//!   — the submitter's guard release or a predecessor's finish — is the one
//!   that reports the task ready.
//!
//! # Concurrent submitters
//!
//! The frontiers live in 16 **region shards** (`region % 16`), one lock
//! each, and that lock is the whole submission protocol: a submitter locks
//! (in ascending order) the shard of every region its accesses name and
//! holds them across id assignment, the frontier pass and edge wiring
//! ([`TaskGraph::lock_submission`]). The held guards *are* the
//! [`SubmissionPermit`], and the frontier pass reaches each frontier
//! through it — so admitting an access takes no lock of its own. Two tasks
//! that could ever conflict share a region, therefore a shard — so every
//! conflicting pair is fully serialised, the later submitter draws the
//! larger **sequence number** (sequence numbers are assigned while the
//! common shard is held and `next_seq` is monotonic) and observes the
//! earlier task's frontier entries (or the entry of a write that dropped
//! them), which keeps every edge pointing from an earlier submission to a
//! later one ([`TaskGraph::edges_respect_submission_order`]). Submitters
//! with disjoint shard sets — independent sessions of a serving tier —
//! share no lock at all and proceed truly concurrently. The read-only
//! gauges lock one shard at a time and hold nothing else, so they cannot
//! close a cycle with a permit holder. Completions may come from any
//! worker concurrently and never take a shard lock.
//!
//! # Node lifecycle and retirement
//!
//! A node moves through `WaitingDeps → Ready → Running (→ Deferred) →
//! Finished`, and is **retired** — its slab slot freed and recycled — by
//! the very [`TaskGraph::finish_node`] call that finishes it: the
//! retirement condition is "finished". Nothing needs a finished node:
//! its successors were released from the list it closed, and a frontier
//! entry or any other holder of its id looks it up, fails the generation
//! compare (retiring **bumps the slot's generation**) and observes "gone =
//! finished" instead of aliasing the slot's next occupant — no ABA within
//! the 2²⁸ generations of a slot, with no id → slot map to maintain. (A
//! frontier entry that outlives 2²⁸ recyclings of its task's slot could at
//! worst add one spurious edge onto a live task of an unrelated, earlier
//! or concurrent submission: a needless wait, never a lost one, and no
//! cycle.) This bounds the graph's steady-state memory by the *live* task
//! window instead of the total submitted count — the
//! [`TaskGraph::live_nodes`] / [`TaskGraph::retired_count`] gauges make
//! that observable, and the slab holds **no per-id state at all** (a
//! retired id occupies zero bytes). A frontier holds ids, never nodes, and
//! lives until its region is deregistered ([`TaskGraph::forget_region`]).

use crate::region::RegionId;
use crate::task::{TaskDesc, TaskId};
use atm_sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use atm_sync::{Mutex, MutexGuard, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Number of node-slab shards (spreads lookup read-locks across cache
/// lines). Fixed by the shard field of the [`TaskId`] bit layout.
const NODE_SHARDS: usize = TaskId::SHARDS;
/// Number of region shards (frontier maps, one lock each).
const LIVE_SHARDS: usize = 16;
/// A frontier is first compacted at this many entries, and from then on
/// whenever it has grown to twice its unfinished entries plus this slack.
const COMPACT_SLACK: usize = 16;

/// Lifecycle of a task inside the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Waiting for one or more predecessors to finish.
    WaitingDeps,
    /// All dependences satisfied; the task is in (or on its way to) the Ready Queue.
    Ready,
    /// A worker is processing the task (executing it or deciding to memoize it).
    Running,
    /// The task hit the In-flight Key Table: an in-flight producer will
    /// provide its outputs and complete it.
    Deferred,
    /// The task is complete (executed, memoized, or completed by a producer).
    Finished,
}

impl NodeState {
    fn from_u8(value: u8) -> NodeState {
        match value {
            0 => NodeState::WaitingDeps,
            1 => NodeState::Ready,
            2 => NodeState::Running,
            3 => NodeState::Deferred,
            4 => NodeState::Finished,
            _ => unreachable!("invalid node state {value}"),
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            NodeState::WaitingDeps => 0,
            NodeState::Ready => 1,
            NodeState::Running => 2,
            NodeState::Deferred => 3,
            NodeState::Finished => 4,
        }
    }
}

/// Successor edges of a node. `closed` flips exactly once, when the node
/// finishes: a submitter that finds the list closed must not register an
/// edge (the dependence is already satisfied).
#[derive(Debug, Default)]
struct SuccessorSlot {
    closed: bool,
    /// The first registered successor, inline: with one edge per dependence
    /// most nodes have exactly one, and it costs no heap block that the
    /// submitter would allocate and the finishing worker free.
    first: Option<TaskId>,
    /// Every further successor, in registration order.
    rest: Vec<TaskId>,
}

impl SuccessorSlot {
    fn push(&mut self, succ: TaskId) {
        if self.first.is_none() {
            self.first = Some(succ);
        } else {
            self.rest.push(succ);
        }
    }

    fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.first.into_iter().chain(self.rest.iter().copied())
    }
}

/// One task node in the TDG. Shared between the slab and the worker that is
/// currently processing the task, so the hot path never clones the
/// descriptor.
#[derive(Debug)]
pub struct TaskNode {
    id: TaskId,
    /// Graph-wide submission sequence number (creation order). The packed
    /// id deliberately carries no order information, so diagnostics and
    /// figures that need creation-order rank read this instead.
    seq: u64,
    desc: TaskDesc,
    unresolved: AtomicUsize,
    state: AtomicU8,
    successors: Mutex<SuccessorSlot>,
}

impl TaskNode {
    /// The task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's graph-wide submission sequence number (creation order,
    /// the x axis of Figure 9). Unlike the packed id this is dense and
    /// monotonic across the whole graph.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The task's descriptor (type, accesses, completion observer).
    pub fn desc(&self) -> &TaskDesc {
        &self.desc
    }

    fn state(&self) -> NodeState {
        NodeState::from_u8(self.state.load(Ordering::SeqCst))
    }

    fn set_state(&self, state: NodeState) {
        self.state.store(state.as_u8(), Ordering::SeqCst);
    }
}

/// The dependence frontier of one region (see the module docs): the last
/// writer (at most one entry, as every write drops the frontier) and the
/// readers admitted since. An entry is the task's id, never its node —
/// a finished task's entry retains nothing. Kept apart because a reader
/// conflicts with writers only — admitting the n-th reader of a fan-out
/// never walks the n − 1 before it.
#[derive(Debug)]
struct Frontier {
    writers: Vec<TaskId>,
    readers: Vec<TaskId>,
    /// Entry count at which finished entries are next compacted away.
    compact_at: usize,
}

impl Default for Frontier {
    fn default() -> Self {
        Frontier {
            writers: Vec::new(),
            readers: Vec::new(),
            compact_at: COMPACT_SLACK,
        }
    }
}

impl Frontier {
    fn len(&self) -> usize {
        self.writers.len() + self.readers.len()
    }

    fn entries(&self) -> impl Iterator<Item = &TaskId> {
        self.writers.iter().chain(&self.readers)
    }
}

/// The frontiers of one shard's regions.
type LiveMap = HashMap<RegionId, Frontier>;

/// The predecessors one submission has already looked at, so that meeting a
/// task twice — two of its entries in one frontier, or one in each of two
/// regions — costs one edge. Inline for the usual handful; a wide fan-in
/// (a write after thousands of readers) spills into an ordered set.
struct SeenPreds {
    inline: [TaskId; SeenPreds::INLINE],
    len: usize,
    spill: BTreeSet<TaskId>,
}

impl SeenPreds {
    const INLINE: usize = 8;

    fn new() -> Self {
        SeenPreds {
            inline: [TaskId::from_raw(0); Self::INLINE],
            len: 0,
            spill: BTreeSet::new(),
        }
    }

    /// Records `id`; false when it was already recorded.
    fn insert(&mut self, id: TaskId) -> bool {
        if self.inline[..self.len].contains(&id) {
            return false;
        }
        if self.len < Self::INLINE {
            self.inline[self.len] = id;
            self.len += 1;
            return true;
        }
        self.spill.insert(id)
    }
}

/// Exclusive hold of the region shards a set of regions maps to, returned
/// by [`TaskGraph::lock_submission`]: the locked frontier maps themselves.
/// While a permit is held, no other submitter can insert (and no
/// deregistration can race) a task touching those regions — which is what
/// lets [`crate::Runtime`] validate a descriptor against the store and then
/// submit it under one critical section, atomically with respect to region
/// retirement.
#[must_use = "a submission permit only excludes other submitters while it is held"]
pub struct SubmissionPermit<'g> {
    /// The guard of each locked shard, indexed by shard.
    shards: [Option<MutexGuard<'g, LiveMap>>; LIVE_SHARDS],
}

impl SubmissionPermit<'_> {
    /// The locked frontier map of `region`'s shard; panics when the permit
    /// was not taken over `region`.
    fn frontiers(&self, region: RegionId) -> &LiveMap {
        self.shards[TaskGraph::live_shard_index(region)]
            .as_deref()
            .unwrap_or_else(|| panic!("the submission permit does not cover {region:?}"))
    }

    fn frontiers_mut(&mut self, region: RegionId) -> &mut LiveMap {
        self.shards[TaskGraph::live_shard_index(region)]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("the submission permit does not cover {region:?}"))
    }
}

/// One generational slot of the node slab. The generation counts how many
/// times the slot has been recycled; an id minted against an older
/// generation fails the compare in [`NodeShard::get`] and reads as retired.
#[derive(Debug, Default)]
struct Slot {
    generation: u32,
    node: Option<Arc<TaskNode>>,
}

/// One shard of the node slab: recyclable generational slots addressed
/// directly by the slot field of the packed [`TaskId`] — there is no
/// id → slot map to probe or to grow. Retiring a node vacates its slot,
/// bumps the generation and pushes the slot onto the free list, so the
/// shard's footprint follows the *live* task window, not the total
/// submitted count.
#[derive(Debug, Default)]
struct NodeShard {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl NodeShard {
    /// Allocates a slot (recycling the free list first), mints the packed
    /// id from `(shard, slot, generation)` and constructs the node in
    /// place. Called under the shard's write lock.
    fn insert(&mut self, shard_index: usize, seq: u64, desc: TaskDesc) -> Arc<TaskNode> {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot::default());
                u32::try_from(self.slots.len() - 1).expect("slab shard exceeds u32 slots")
            }
        };
        let entry = &mut self.slots[slot as usize];
        debug_assert!(entry.node.is_none(), "allocated slot must be vacant");
        let node = Arc::new(TaskNode {
            id: TaskId::pack(shard_index, slot, entry.generation),
            seq,
            desc,
            unresolved: AtomicUsize::new(1),
            state: AtomicU8::new(NodeState::WaitingDeps.as_u8()),
            successors: Mutex::new(SuccessorSlot::default()),
        });
        entry.node = Some(Arc::clone(&node));
        node
    }

    /// The hot-path lookup: bounds check + generation compare + `Arc`
    /// clone. A stale generation (the slot was recycled since the id was
    /// minted) reads as `None` = retired = finished.
    fn get(&self, slot: u32, generation: u32) -> Option<Arc<TaskNode>> {
        let entry = self.slots.get(slot as usize)?;
        if entry.generation != generation {
            return None;
        }
        entry.node.as_ref().map(Arc::clone)
    }

    /// Vacates a slot, bumps its generation (invalidating every id minted
    /// against the old one) and recycles it. Called under the shard's
    /// write lock by the node's own finish.
    fn remove(&mut self, slot: u32, generation: u32) {
        let entry = &mut self.slots[slot as usize];
        debug_assert_eq!(entry.generation, generation, "retiring a stale generation");
        debug_assert!(entry.node.is_some(), "retiring a vacant slot");
        entry.node = None;
        entry.generation = entry.generation.wrapping_add(1) & TaskId::GEN_MASK;
        self.free.push(slot);
    }
}

/// The Task Dependence Graph plus the per-region bookkeeping needed to build it.
#[derive(Debug)]
pub struct TaskGraph {
    /// Sharded node slab, addressed by the shard/slot/generation fields of
    /// the packed [`TaskId`]. Shards are chosen round-robin by submission
    /// sequence number; slots are recycled (with a generation bump) as
    /// nodes retire.
    shards: Vec<RwLock<NodeShard>>,
    /// The dependence frontier of every region a task has touched since the
    /// region was registered, in region shards whose locks are the
    /// submission locks (see the module docs). Completions never come here.
    live: Vec<Mutex<LiveMap>>,
    /// Monotonic submission sequence counter: assigns each task its dense
    /// creation-order rank ([`TaskNode::seq`]) and picks its slab shard
    /// (`seq % NODE_SHARDS`).
    next_seq: AtomicU64,
    /// Dependence edges wired so far (submitters only).
    edges: AtomicU64,
    /// Tasks finished — and, since a node retires at its own finish,
    /// retired — so far: the one completion counter.
    retired: AtomicU64,
}

impl Default for TaskGraph {
    fn default() -> Self {
        TaskGraph {
            shards: (0..NODE_SHARDS)
                .map(|_| RwLock::new(NodeShard::default()))
                .collect(),
            live: (0..LIVE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_seq: AtomicU64::new(0),
            edges: AtomicU64::new(0),
            retired: AtomicU64::new(0),
        }
    }
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks ever submitted.
    pub fn len(&self) -> usize {
        self.next_seq.load(Ordering::SeqCst) as usize
    }

    /// True when no task was ever submitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of finished tasks. A node retires at its own finish, so this
    /// is [`TaskGraph::retired_count`] under the name completion callers
    /// ask for.
    pub fn finished_count(&self) -> u64 {
        self.retired_count()
    }

    /// Number of retired tasks (finished, slab slot freed).
    pub fn retired_count(&self) -> u64 {
        self.retired.load(Ordering::SeqCst)
    }

    /// Number of dependence edges wired so far. Divided by
    /// [`TaskGraph::len`] it is the edges-per-task of the program: 1 on an
    /// inout chain however many of its members are live.
    pub fn edges_wired(&self) -> u64 {
        self.edges.load(Ordering::Relaxed)
    }

    /// Number of nodes currently resident in the slab (submitted minus
    /// retired). In steady state this follows the live task window, not the
    /// total submitted count.
    pub fn live_nodes(&self) -> u64 {
        // Load `retired` first: a submission landing between the two loads
        // then over-counts the gauge instead of underflowing it (retired
        // can never exceed the submitted count it was read against).
        let retired = self.retired.load(Ordering::SeqCst);
        self.next_seq.load(Ordering::SeqCst).saturating_sub(retired)
    }

    /// The node of a task, if it has not retired yet. `None` means the task
    /// finished and its slot was recycled (the generation compare fails for
    /// the stale id). A bounds check plus a generation compare under the
    /// shard's read lock — no hash probe.
    pub fn try_node(&self, id: TaskId) -> Option<Arc<TaskNode>> {
        self.shards[id.shard()]
            .read()
            .get(id.slot(), id.generation())
    }

    /// The node of a task.
    ///
    /// # Panics
    /// Panics when the task has already retired; use [`TaskGraph::try_node`]
    /// for lookups that may race retirement.
    pub fn node(&self, id: TaskId) -> Arc<TaskNode> {
        self.try_node(id)
            .unwrap_or_else(|| panic!("{id} has retired (or was never submitted)"))
    }

    fn live_shard_index(region: RegionId) -> usize {
        region.index() % LIVE_SHARDS
    }

    /// Locks the region shards the given regions map to, in ascending
    /// shard order (deadlock-free by hierarchy), and returns the permit.
    /// Conflicting submitters share a region and therefore block on a
    /// common shard; disjoint ones acquire disjoint locks and run
    /// concurrently. An empty region set locks nothing.
    pub fn lock_submission(
        &self,
        regions: impl IntoIterator<Item = RegionId>,
    ) -> SubmissionPermit<'_> {
        let mut touched = [false; LIVE_SHARDS];
        for region in regions {
            touched[Self::live_shard_index(region)] = true;
        }
        let mut permit = SubmissionPermit {
            shards: Default::default(),
        };
        for (index, lock) in self.live.iter().enumerate() {
            if touched[index] {
                permit.shards[index] = Some(lock.lock());
            }
        }
        permit
    }

    /// True while the task behind a frontier entry can still be waited for.
    /// A finished task is either gone from the slab or about to be.
    fn is_unfinished(&self, task: TaskId) -> bool {
        self.try_node(task)
            .is_some_and(|node| node.state() != NodeState::Finished)
    }

    /// True when at least one unfinished task declares an access on
    /// `region`, read through the permit covering it — so no submitter can
    /// add an accessor while the answer is in use (deregistration relies on
    /// it).
    pub fn region_has_live_accessors(
        &self,
        permit: &SubmissionPermit<'_>,
        region: RegionId,
    ) -> bool {
        permit
            .frontiers(region)
            .get(&region)
            .is_some_and(|frontier| frontier.entries().any(|&task| self.is_unfinished(task)))
    }

    /// Drops the frontier of a deregistered region, so the index follows
    /// the registered regions rather than every region ever touched. The
    /// caller holds the region's permit and has checked
    /// [`TaskGraph::region_has_live_accessors`] under it: nothing can be
    /// waiting on, or be about to conflict with, the entries that go.
    pub fn forget_region(&self, permit: &mut SubmissionPermit<'_>, region: RegionId) {
        permit.frontiers_mut(region).remove(&region);
    }

    /// Number of regions that currently have a dependence frontier: every
    /// region a task has touched and [`TaskGraph::forget_region`] has not
    /// dropped since. Follows the registered working set, not every region
    /// ever touched.
    pub fn live_index_regions(&self) -> usize {
        self.live.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Number of entries in the frontier of `region` (for tests and
    /// diagnostics): bounded by the region's unfinished accessors, not by
    /// how many tasks ever touched it.
    pub fn frontier_len(&self, region: RegionId) -> usize {
        self.live[Self::live_shard_index(region)]
            .lock()
            .get(&region)
            .map_or(0, Frontier::len)
    }

    /// Inserts a task, computes its dependences and returns `(id, ready)`:
    /// a batch of one ([`TaskGraph::submit_batch`]).
    ///
    /// `ready == true` means the submitter owns the task's transition to the
    /// Ready Queue. `ready == false` means a predecessor was still in flight
    /// at registration time; whichever predecessor performs the final
    /// release will report the task as newly ready from [`TaskGraph::finish`].
    pub fn submit(&self, desc: TaskDesc) -> (TaskId, bool) {
        self.submit_batch(vec![desc])
            .pop()
            .expect("a batch of one yields one id")
    }

    /// Admits every access of `node` to the frontier of its region (the
    /// dependence rule of the module docs), reached through the permit that
    /// already holds its shard, and returns the number of edges wired.
    fn admit(&self, permit: &mut SubmissionPermit<'_>, node: &TaskNode) -> u64 {
        let mut seen = SeenPreds::new();
        let mut edges = 0;
        for access in &node.desc.accesses {
            let writes = access.mode.is_write();
            let frontier = permit
                .frontiers_mut(access.region)
                .entry(access.region)
                .or_default();
            // Every scanned pair has a writer in it (a reader never scans
            // the readers), so every entry of another task is a dependence.
            // A write covers the whole region, so it drops every entry it
            // scans: whatever conflicts with those entries later conflicts
            // with the write, which already waits on them.
            let mut scan = |entries: &mut Vec<TaskId>| {
                entries.retain(|&task| {
                    if task == node.id || !seen.insert(task) {
                        return !writes;
                    }
                    let wired = self.wire_edge(node, task);
                    edges += u64::from(wired);
                    wired && !writes
                });
            };
            scan(&mut frontier.writers);
            if writes {
                scan(&mut frontier.readers);
                frontier.writers.push(node.id);
            } else {
                frontier.readers.push(node.id);
            }
            if frontier.len() >= frontier.compact_at {
                frontier.writers.retain(|&task| self.is_unfinished(task));
                frontier.readers.retain(|&task| self.is_unfinished(task));
                frontier.compact_at = 2 * frontier.len() + COMPACT_SLACK;
            }
        }
        edges
    }

    /// Registers the edge `pred → node`; false when `pred` has finished
    /// (closed list) or even retired (gone from the slab) since its
    /// frontier entry was written — both mean the dependence is already
    /// satisfied. Holding the predecessor's successor lock while
    /// incrementing `unresolved` guarantees the matching decrement —
    /// performed by the predecessor's finish, which needs the same lock to
    /// close the list — cannot arrive first.
    fn wire_edge(&self, node: &TaskNode, pred: TaskId) -> bool {
        let Some(pred_node) = self.try_node(pred) else {
            return false;
        };
        let mut slot = pred_node.successors.lock();
        if slot.closed {
            return false;
        }
        slot.push(node.id);
        node.unresolved.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Releases the submission guard of a wired node. Exactly one decrement
    /// observes the counter reach zero; if it is this one, the task is
    /// ready now and the submitter owns its ready push.
    fn release_submission_guard(node: &TaskNode) -> bool {
        let ready = node.unresolved.fetch_sub(1, Ordering::SeqCst) == 1;
        if ready {
            node.set_state(NodeState::Ready);
        }
        ready
    }

    /// Inserts a batch of tasks, computes their dependences (including the
    /// dependences *between* batch members) and returns one `(id, ready)`
    /// per task, in submission order.
    ///
    /// The touched region shards are locked once and each touched slab
    /// shard's write lock is taken once — not once per task. The semantics
    /// (ids, edges, ready transitions) are exactly those of submitting the
    /// descriptors as batches of one, in order.
    pub fn submit_batch(&self, descs: Vec<TaskDesc>) -> Vec<(TaskId, bool)> {
        let mut permit = self.lock_submission(
            descs
                .iter()
                .flat_map(|d| d.accesses.iter().map(|a| a.region)),
        );
        self.submit_batch_with(&mut permit, descs)
    }

    /// The body of [`TaskGraph::submit_batch`], for callers that already
    /// hold the permit covering every region in the batch (the runtime
    /// validates the batch against the store inside the same critical
    /// section); panics when the permit misses one.
    pub fn submit_batch_with(
        &self,
        permit: &mut SubmissionPermit<'_>,
        descs: Vec<TaskDesc>,
    ) -> Vec<(TaskId, bool)> {
        let batch_len = descs.len();
        let first = self.next_seq.fetch_add(batch_len as u64, Ordering::SeqCst);

        // Slab insertion (which creates the nodes and mints their packed
        // ids) happens *before* edge registration — a predecessor finishing
        // mid-registration must be able to look a batch member up — with
        // one write lock per touched slab shard: member `offset` lands in
        // shard `(first + offset) % NODE_SHARDS`, and each shard takes its
        // members in submission order (slots recycled LIFO), so a batch
        // draws exactly the ids its members would as batches of one. The
        // submission guard (unresolved = 1) keeps each task from becoming
        // ready until its edges are wired.
        let mut descs: Vec<Option<TaskDesc>> = descs.into_iter().map(Some).collect();
        let mut nodes: Vec<Option<Arc<TaskNode>>> = (0..batch_len).map(|_| None).collect();
        for lane in 0..batch_len.min(NODE_SHARDS) {
            let shard_index = ((first + lane as u64) as usize) % NODE_SHARDS;
            let mut shard = self.shards[shard_index].write();
            for offset in (lane..batch_len).step_by(NODE_SHARDS) {
                let desc = descs[offset].take().expect("each descriptor moves once");
                nodes[offset] = Some(shard.insert(shard_index, first + offset as u64, desc));
            }
        }

        // Dependence pass in submission order: an earlier member's frontier
        // entries are what a later member meets, exactly as if it had been
        // submitted first on its own. A member cannot run before its own
        // guard goes, so releasing each guard as soon as its edges are
        // wired is safe.
        let mut edges = 0;
        let submitted = nodes
            .into_iter()
            .map(|node| {
                let node = node.expect("every member was inserted");
                edges += self.admit(permit, &node);
                (node.id, Self::release_submission_guard(&node))
            })
            .collect();
        self.edges.fetch_add(edges, Ordering::Relaxed);
        submitted
    }

    /// Marks a ready task as picked up by a worker and returns its node, so
    /// the worker reaches the descriptor without a second lookup or a clone.
    pub fn start_running(&self, id: TaskId) -> Arc<TaskNode> {
        let node = self.node(id);
        debug_assert_eq!(
            node.state(),
            NodeState::Ready,
            "only ready tasks can start running"
        );
        node.set_state(NodeState::Running);
        node
    }

    /// Marks a ready task as picked up by a worker.
    pub fn mark_running(&self, id: TaskId) {
        let _ = self.start_running(id);
    }

    /// Marks a running task as deferred to an in-flight producer.
    ///
    /// The producer may complete the task *before* the deferring worker gets
    /// here: the deferral registration (inside the interceptor) is visible
    /// to the producer's completion path as soon as it happens, so the
    /// producer can legally call [`TaskGraph::finish`] on a still-`Running`
    /// waiter. In that case the task is already `Finished` (and, having
    /// retired with it, most likely gone) and this call is a no-op — only a
    /// `Running` task actually moves to `Deferred`.
    pub fn mark_deferred(&self, id: TaskId) {
        let Some(node) = self.try_node(id) else {
            // Finished and its slot recycled: the same tolerated no-op as
            // the already-`Finished` case below.
            return;
        };
        if node
            .state
            .compare_exchange(
                NodeState::Running.as_u8(),
                NodeState::Deferred.as_u8(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            debug_assert_eq!(
                node.state(),
                NodeState::Finished,
                "only running tasks (or tasks already completed by their producer) can be deferred"
            );
        }
    }

    /// Completes a task by id (looks the node up first); see
    /// [`TaskGraph::finish_node`] for the lookup-free variant a worker uses
    /// with the node it already holds.
    pub fn finish(&self, id: TaskId) -> Vec<TaskId> {
        self.finish_node(&self.node(id))
    }

    /// Allocating convenience wrapper around
    /// [`TaskGraph::finish_node_into`]: returns the newly-ready successors
    /// in a fresh `Vec`. Tests and one-shot callers use this; the worker
    /// hot path reuses a per-worker scratch buffer instead.
    pub fn finish_node(&self, node: &TaskNode) -> Vec<TaskId> {
        let mut newly_ready = Vec::new();
        self.finish_node_into(node, &mut newly_ready);
        newly_ready
    }

    /// Completes a task: closes its successor list, releases its
    /// successors, retires the node, and **appends** the successors that
    /// became ready to `newly_ready` — the caller-owned scratch that lets a
    /// worker aggregate the releases of a whole finish cycle (the executed
    /// task plus its producer-completed deferred waiters) into one
    /// ready-queue packet without allocating per finish.
    ///
    /// Touches the node and its successors only: the node's own successor
    /// lock, one slab lookup and one atomic decrement per successor, and
    /// one slab-shard write lock to free the slot. No frontier, no region
    /// shard lock, nothing per access.
    pub fn finish_node_into(&self, node: &TaskNode, newly_ready: &mut Vec<TaskId>) {
        let id = node.id();
        let state = node.state();
        assert!(
            matches!(state, NodeState::Running | NodeState::Deferred),
            "finish() on a task that is not running or deferred: {state:?}"
        );
        node.set_state(NodeState::Finished);

        // Close the successor list: from here on, new submissions treat this
        // task as finished and register no edges onto it.
        let (first, rest) = {
            let mut slot = node.successors.lock();
            slot.closed = true;
            (slot.first.take(), std::mem::take(&mut slot.rest))
        };

        for succ in first.into_iter().chain(rest) {
            // A successor with an unreleased edge has not run, so it has
            // not finished, so it has not retired: the lookup must succeed.
            let succ_node = self.node(succ);
            let prev = succ_node.unresolved.fetch_sub(1, Ordering::SeqCst);
            debug_assert!(prev > 0, "successor with no unresolved dependences");
            if prev == 1 {
                debug_assert_eq!(succ_node.state(), NodeState::WaitingDeps);
                succ_node.set_state(NodeState::Ready);
                newly_ready.push(succ);
            }
        }

        // Retirement: nothing needs a finished node (see the module docs).
        self.shards[id.shard()]
            .write()
            .remove(id.slot(), id.generation());
        self.retired.fetch_add(1, Ordering::SeqCst);
    }

    /// Current state of a task. Retired tasks (slot already recycled) are,
    /// by the retirement condition, finished.
    pub fn state(&self, id: TaskId) -> NodeState {
        self.try_node(id)
            .map_or(NodeState::Finished, |node| node.state())
    }

    /// Direct successors of a task so far (for tests and diagnostics;
    /// empty for retired tasks).
    pub fn successors(&self, id: TaskId) -> Vec<TaskId> {
        self.try_node(id)
            .map_or_else(Vec::new, |node| node.successors.lock().iter().collect())
    }

    /// Number of unresolved predecessors of a task (for tests and
    /// diagnostics; zero for retired tasks). The submission guard is
    /// released before [`TaskGraph::submit_batch`] returns, so this is
    /// exactly the number of in-flight predecessors.
    pub fn unresolved(&self, id: TaskId) -> usize {
        self.try_node(id)
            .map_or(0, |node| node.unresolved.load(Ordering::SeqCst))
    }

    /// Checks the structural invariant that every edge goes from an earlier
    /// submission (smaller [`TaskNode::seq`]) to a later one — which makes
    /// the TDG acyclic by construction. Walks the resident nodes of every
    /// shard; a successor that retired between the walk and the lookup is
    /// skipped (retired = finished, so the edge was consumed). Used by
    /// tests.
    pub fn edges_respect_submission_order(&self) -> bool {
        let mut resident: Vec<Arc<TaskNode>> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            resident.extend(shard.slots.iter().filter_map(|s| s.node.clone()));
        }
        resident.iter().all(|node| {
            node.successors.lock().iter().all(|succ| {
                self.try_node(succ)
                    .is_none_or(|succ_node| succ_node.seq() > node.seq())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::region::{DataStore, Region};
    use crate::task::TaskTypeId;

    fn store_with_regions(n: usize) -> (DataStore, Vec<Region<f32>>) {
        let store = DataStore::new();
        let ids = (0..n)
            .map(|i| store.register_zeros::<f32>(format!("r{i}"), 16).unwrap())
            .collect();
        (store, ids)
    }

    fn desc(accesses: Vec<Access>) -> TaskDesc {
        TaskDesc::new(TaskTypeId(0), accesses)
    }

    #[test]
    fn independent_tasks_are_immediately_ready() {
        let (_store, r) = store_with_regions(2);
        let g = TaskGraph::new();
        let (a, ra) = g.submit(desc(vec![Access::write(&r[0])]));
        let (b, rb) = g.submit(desc(vec![Access::write(&r[1])]));
        assert!(ra && rb);
        assert_eq!(g.state(a), NodeState::Ready);
        assert_eq!(g.state(b), NodeState::Ready);
        assert!(g.edges_respect_submission_order());
    }

    #[test]
    fn raw_dependence_orders_producer_before_consumer() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (producer, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let (consumer, ready) = g.submit(desc(vec![Access::read(&r[0])]));
        assert!(!ready);
        assert_eq!(g.unresolved(consumer), 1);
        assert_eq!(g.successors(producer), vec![consumer]);

        g.mark_running(producer);
        let newly = g.finish(producer);
        assert_eq!(newly, vec![consumer]);
        assert_eq!(g.state(consumer), NodeState::Ready);
    }

    #[test]
    fn war_and_waw_dependences_are_created() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (reader, _) = g.submit(desc(vec![Access::read(&r[0])]));
        let (writer1, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let (writer2, w2_ready) = g.submit(desc(vec![Access::write(&r[0])]));
        // WAR: writer1 depends on reader. WAW: writer2 depends on writer1
        // (and also on reader through the WAR chain; exact edge count may
        // include both since the reader is still live).
        assert_eq!(g.unresolved(writer1), 1);
        assert!(!w2_ready);
        assert!(g.successors(reader).contains(&writer1));
        assert!(g.successors(writer1).contains(&writer2));
    }

    #[test]
    fn two_readers_do_not_depend_on_each_other() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (_w, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let (a, _) = g.submit(desc(vec![Access::read(&r[0])]));
        let (b, _) = g.submit(desc(vec![Access::read(&r[0])]));
        // Both readers depend only on the writer, not on each other.
        assert_eq!(g.unresolved(a), 1);
        assert_eq!(g.unresolved(b), 1);
        assert!(g.successors(a).is_empty());
    }

    #[test]
    fn finished_predecessors_do_not_create_dependences() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (w, _) = g.submit(desc(vec![Access::write(&r[0])]));
        g.mark_running(w);
        g.finish(w);
        let (reader, ready) = g.submit(desc(vec![Access::read(&r[0])]));
        assert!(
            ready,
            "a reader submitted after the writer finished must be immediately ready"
        );
        assert_eq!(g.unresolved(reader), 0);
    }

    #[test]
    fn deferred_tasks_complete_like_executed_ones() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (producer, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let (deferred, _) = g.submit(desc(vec![Access::read_write(&r[0])]));
        let (consumer, _) = g.submit(desc(vec![Access::read(&r[0])]));
        g.mark_running(producer);
        assert_eq!(g.finish(producer), vec![deferred]);
        g.mark_running(deferred);
        g.mark_deferred(deferred);
        assert_eq!(g.state(deferred), NodeState::Deferred);
        let newly = g.finish(deferred);
        assert_eq!(newly, vec![consumer]);
        assert_eq!(g.finished_count(), 2);
    }

    #[test]
    fn diamond_dependence_pattern() {
        // a writes r0; b and c read r0 and write r1/r2; d reads r1 and r2.
        let (_store, r) = store_with_regions(3);
        let g = TaskGraph::new();
        let (a, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let (b, _) = g.submit(desc(vec![Access::read(&r[0]), Access::write(&r[1])]));
        let (c, _) = g.submit(desc(vec![Access::read(&r[0]), Access::write(&r[2])]));
        let (d, _) = g.submit(desc(vec![Access::read(&r[1]), Access::read(&r[2])]));
        assert_eq!(g.unresolved(d), 2);
        g.mark_running(a);
        let ready_after_a: BTreeSet<TaskId> = g.finish(a).into_iter().collect();
        assert_eq!(ready_after_a, [b, c].into_iter().collect());
        g.mark_running(b);
        assert!(g.finish(b).is_empty());
        g.mark_running(c);
        assert_eq!(g.finish(c), vec![d]);
    }

    #[test]
    #[should_panic(expected = "not running or deferred")]
    fn finishing_a_waiting_task_panics() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (_w, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let (waiting, _) = g.submit(desc(vec![Access::read(&r[0])]));
        g.finish(waiting);
    }

    /// The IKT hand-off race: an in-flight producer may finish (and
    /// complete) a deferred waiter before the waiter's worker reaches
    /// `mark_deferred`. The late `mark_deferred` must be a tolerated no-op,
    /// not a panic that kills the worker thread.
    #[test]
    fn late_mark_deferred_after_producer_completion_is_tolerated() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (waiter, _) = g.submit(desc(vec![Access::write(&r[0])]));
        g.mark_running(waiter);
        // Producer's after_execute completes the waiter first…
        assert!(g.finish(waiter).is_empty());
        // …then the deferring worker's mark_deferred arrives late.
        g.mark_deferred(waiter);
        assert_eq!(g.state(waiter), NodeState::Finished);
        assert_eq!(g.finished_count(), 1);
    }

    #[test]
    fn a_task_reading_and_writing_the_same_region_does_not_self_depend() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (t, ready) = g.submit(desc(vec![Access::read(&r[0]), Access::write(&r[0])]));
        assert!(ready, "a task never depends on itself");
        assert_eq!(g.unresolved(t), 0);
    }

    #[test]
    fn node_handle_exposes_the_descriptor_without_cloning() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (id, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let node = g.start_running(id);
        assert_eq!(node.desc().accesses.len(), 1);
        assert_eq!(g.state(id), NodeState::Running);
    }

    #[test]
    fn an_independent_task_retires_at_finish() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (t, _) = g.submit(desc(vec![Access::write(&r[0])]));
        assert_eq!(g.live_nodes(), 1);
        g.mark_running(t);
        g.finish(t);
        assert_eq!(g.retired_count(), 1);
        assert_eq!(g.live_nodes(), 0);
        assert!(g.try_node(t).is_none(), "the slot must be freed");
        assert_eq!(g.state(t), NodeState::Finished, "retired implies finished");
    }

    #[test]
    fn a_predecessor_retires_at_its_own_finish_with_successors_still_waiting() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (producer, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let (consumer, _) = g.submit(desc(vec![Access::read(&r[0])]));
        g.mark_running(producer);
        assert_eq!(g.finish(producer), vec![consumer]);
        // The retirement condition is "finished": the consumer was released
        // from the list the producer closed, and nothing else needs the
        // node — a stale lookup reads "gone = finished".
        assert_eq!(g.retired_count(), 1);
        assert!(g.try_node(producer).is_none());
        assert_eq!(g.state(producer), NodeState::Finished);
        // A late reader meets the producer's frontier entry, finds the id
        // gone and wires nothing.
        let (late, ready) = g.submit(desc(vec![Access::read(&r[0])]));
        assert!(ready);
        assert_eq!(g.unresolved(late), 0);
        g.mark_running(consumer);
        g.finish(consumer);
        assert_eq!(g.retired_count(), 2);
        assert_eq!(g.finished_count(), 2, "one counter under both names");
        assert_eq!(g.live_nodes(), 1);
    }

    #[test]
    fn retired_slots_are_recycled_by_later_submissions() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        // Drive many more tasks than slots through one chain; every task
        // must fit in the recycled slots of its retired predecessors.
        let mut ids = Vec::new();
        for _ in 0..10 * NODE_SHARDS {
            let (t, _) = g.submit(desc(vec![Access::write(&r[0])]));
            g.mark_running(t);
            g.finish(t);
            ids.push(t);
        }
        assert_eq!(g.live_nodes(), 0);
        assert_eq!(g.retired_count(), 10 * NODE_SHARDS as u64);
        // Every retired id fails the generation compare: gone = finished.
        for id in &ids {
            assert!(g.try_node(*id).is_none());
            assert_eq!(g.state(*id), NodeState::Finished);
        }
        // Recycling never mints the same id twice (the generation bump).
        let distinct: BTreeSet<TaskId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len());
        // The slab recycled slots instead of growing — and with the id →
        // slot map gone, shard memory is a handful of slots regardless of
        // how many ids were ever submitted.
        for shard in &g.shards {
            assert!(
                shard.read().slots.len() <= 2,
                "slots must be recycled, not appended"
            );
        }
    }

    /// Slot-reuse/ABA regression: a slot recycled through several
    /// generations must never let a stale id of a retired occupant alias
    /// the slot's current occupant.
    #[test]
    fn stale_ids_of_recycled_slots_never_alias_the_new_occupant() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let mut retired = Vec::new();
        // One full round of NODE_SHARDS submissions returns to the same
        // shard and (LIFO free list, empty graph) the same slot — each
        // round is one generation of that slot.
        for generation in 0..4u32 {
            let (t, _) = g.submit(desc(vec![Access::write(&r[0])]));
            assert_eq!(t.generation(), generation);
            assert_eq!(t.slot(), 0);
            assert_eq!(t.shard(), 0);
            g.mark_running(t);
            g.finish(t);
            retired.push(t);
            for _ in 1..NODE_SHARDS {
                let (filler, _) = g.submit(desc(vec![Access::write(&r[0])]));
                g.mark_running(filler);
                g.finish(filler);
            }
        }
        // A live occupant of the recycled slot…
        let (live, _) = g.submit(desc(vec![Access::write(&r[0])]));
        assert_eq!((live.shard(), live.slot()), (0, 0));
        // …is invisible through every stale generation of the same slot.
        for stale in &retired {
            assert_ne!(*stale, live);
            assert!(g.try_node(*stale).is_none(), "{stale} must read as gone");
            assert_eq!(g.state(*stale), NodeState::Finished);
            assert_eq!(g.unresolved(*stale), 0);
            assert!(g.successors(*stale).is_empty());
        }
        assert!(g.try_node(live).is_some());
        g.mark_running(live);
        g.finish(live);
    }

    #[test]
    fn batch_submission_matches_one_by_one_semantics() {
        let (_store, r) = store_with_regions(2);
        let singleton = TaskGraph::new();
        let batched = TaskGraph::new();
        // Each member of the program as a batch of its own, against the
        // whole program as one batch.
        let program = || {
            vec![
                desc(vec![Access::write(&r[0])]),
                desc(vec![Access::read(&r[0]), Access::write(&r[1])]),
                desc(vec![Access::read(&r[1])]),
                desc(vec![Access::read(&r[0])]),
            ]
        };
        let one_by_one: Vec<(TaskId, bool)> = program()
            .into_iter()
            .flat_map(|d| singleton.submit_batch(vec![d]))
            .collect();
        let as_batch = batched.submit_batch(program());
        // Id allocation is deterministic (`seq % NODE_SHARDS` sharding,
        // LIFO slot recycling), so two fresh graphs given the same program
        // mint identical ids — which makes the graphs directly comparable.
        assert_eq!(one_by_one, as_batch);
        for (id, _) in &one_by_one {
            assert_eq!(singleton.successors(*id), batched.successors(*id), "{id}");
            assert_eq!(singleton.unresolved(*id), batched.unresolved(*id), "{id}");
        }
        assert!(batched.edges_respect_submission_order());
    }

    #[test]
    fn batch_members_depend_on_earlier_batch_members() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let results = g.submit_batch(vec![
            desc(vec![Access::read_write(&r[0])]),
            desc(vec![Access::read_write(&r[0])]),
            desc(vec![Access::read_write(&r[0])]),
        ]);
        assert_eq!(
            results.iter().map(|(_, ready)| *ready).collect::<Vec<_>>(),
            vec![true, false, false],
            "an inout chain inside one batch serialises"
        );
        let chain: Vec<TaskId> = results.into_iter().map(|(id, _)| id).collect();
        g.mark_running(chain[0]);
        assert_eq!(g.finish(chain[0]), vec![chain[1]]);
        g.mark_running(chain[1]);
        assert_eq!(g.finish(chain[1]), vec![chain[2]]);
        g.mark_running(chain[2]);
        assert!(g.finish(chain[2]).is_empty());
        assert_eq!(g.retired_count(), 3, "the whole chain retires at the end");
    }

    #[test]
    fn batch_sees_live_tasks_submitted_before_it() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (earlier, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let results = g.submit_batch(vec![
            desc(vec![Access::read(&r[0])]),
            desc(vec![Access::read(&r[0])]),
        ]);
        assert!(results.iter().all(|(_, ready)| !ready));
        g.mark_running(earlier);
        let released = g.finish(earlier);
        assert_eq!(released.len(), 2);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let g = TaskGraph::new();
        assert!(g.submit_batch(Vec::new()).is_empty());
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn live_accessor_gauges_follow_the_live_set() {
        let (_store, r) = store_with_regions(2);
        let g = TaskGraph::new();
        let live = |region: &Region<f32>| {
            let permit = g.lock_submission([region.id()]);
            g.region_has_live_accessors(&permit, region.id())
        };
        assert_eq!(g.live_index_regions(), 0);
        assert!(!live(&r[0]));
        let (t, _) = g.submit(desc(vec![Access::write(&r[0]), Access::read(&r[1])]));
        assert!(live(&r[0]));
        assert!(live(&r[1]));
        assert_eq!(g.live_index_regions(), 2);
        g.mark_running(t);
        g.finish(t);
        // A finish does not visit the frontiers: the entries stay, but they
        // name a finished task, so nothing is live on either region…
        assert!(!live(&r[0]));
        assert!(!live(&r[1]));
        assert_eq!(g.live_index_regions(), 2);
        // …and deregistration is what drops a region's frontier.
        for region in &r {
            let mut permit = g.lock_submission([region.id()]);
            g.forget_region(&mut permit, region.id());
        }
        assert_eq!(
            g.live_index_regions(),
            0,
            "forgotten regions leave the index"
        );
        assert_eq!(g.frontier_len(r[0].id()), 0);
    }

    /// (ii) One edge per dependence: a chain of 64 live inout tasks has 63
    /// edges, and its region's frontier is the last writer alone.
    #[test]
    fn an_inout_chain_of_64_live_tasks_has_63_edges() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let chain: Vec<TaskId> = (0..64)
            .map(|_| g.submit(desc(vec![Access::read_write(&r[0])])).0)
            .collect();
        assert_eq!(g.edges_wired(), 63);
        assert_eq!(g.frontier_len(r[0].id()), 1);
        for (i, id) in chain.iter().enumerate() {
            assert_eq!(g.unresolved(*id), usize::from(i > 0));
            let next: Vec<TaskId> = chain.get(i + 1).copied().into_iter().collect();
            assert_eq!(g.successors(*id), next);
        }
        // The batch path wires the same graph.
        let batched = TaskGraph::new();
        batched.submit_batch(
            (0..64)
                .map(|_| desc(vec![Access::read_write(&r[0])]))
                .collect(),
        );
        assert_eq!(batched.edges_wired(), 63);
    }

    /// (iii) Readers of a region nobody writes never drop each other, so
    /// only compaction bounds the frontier: it stays within twice the live
    /// readers (plus the slack) across 10 000 of them, and the last
    /// thousand submissions cost what the first thousand did.
    #[test]
    fn ten_thousand_readers_of_an_unwritten_region_keep_the_frontier_bounded() {
        const LIVE: usize = 8;
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let mut window = std::collections::VecDeque::new();
        let mut thousand_ns = Vec::new();
        for _ in 0..10 {
            let start = std::time::Instant::now();
            for _ in 0..1000 {
                if window.len() == LIVE {
                    let oldest = window.pop_front().unwrap();
                    g.mark_running(oldest);
                    g.finish(oldest);
                }
                let (reader, ready) = g.submit(desc(vec![Access::read(&r[0])]));
                assert!(ready, "readers never wait on readers");
                window.push_back(reader);
                assert!(
                    g.frontier_len(r[0].id()) <= 2 * LIVE + COMPACT_SLACK,
                    "frontier grew to {} entries with {LIVE} live readers",
                    g.frontier_len(r[0].id())
                );
            }
            thousand_ns.push(start.elapsed().as_nanos());
        }
        assert_eq!(g.edges_wired(), 0);
        assert_eq!(g.live_nodes(), LIVE as u64);
        // Generous (×8 against scheduling noise): an unbounded frontier
        // would be neither scanned nor compacted in constant time.
        let (first, last) = (thousand_ns[0], thousand_ns[9]);
        assert!(
            last <= 8 * first.max(100_000),
            "submit time grew with the readers ever admitted: {first} ns -> {last} ns per thousand"
        );
    }

    /// (iv) A write after many reads waits on every live reader — and on
    /// none of the finished ones.
    #[test]
    fn a_write_after_many_reads_waits_on_every_live_reader() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let readers: Vec<TaskId> = (0..40)
            .map(|_| g.submit(desc(vec![Access::read(&r[0])])).0)
            .collect();
        for done in &readers[..15] {
            g.mark_running(*done);
            g.finish(*done);
        }
        let (writer, ready) = g.submit(desc(vec![Access::write(&r[0])]));
        assert!(!ready);
        assert_eq!(g.unresolved(writer), 25);
        for live in &readers[15..] {
            assert_eq!(g.successors(*live), vec![writer]);
        }
        assert_eq!(
            g.frontier_len(r[0].id()),
            1,
            "the write cleared the frontier"
        );
        // The last reader to finish is the one that releases the writer.
        for live in &readers[15..39] {
            g.mark_running(*live);
            assert!(g.finish(*live).is_empty());
        }
        g.mark_running(readers[39]);
        assert_eq!(g.finish(readers[39]), vec![writer]);
    }

    /// Truly concurrent submitters on disjoint regions never share a
    /// submission shard lock by construction of the test (one region per
    /// thread, spread across shards) — and even where shards do collide the
    /// graph must stay consistent: every edge obeys id order and every
    /// chain serialises on its own region.
    #[test]
    fn disjoint_concurrent_submitters_build_a_consistent_graph() {
        let (_store, r) = store_with_regions(4);
        let g = Arc::new(TaskGraph::new());
        let chains: Vec<Vec<TaskId>> = (0..4)
            .map(|t| {
                let g = Arc::clone(&g);
                let region = r[t];
                std::thread::spawn(move || {
                    (0..50)
                        .map(|_| g.submit(desc(vec![Access::read_write(&region)])).0)
                        .collect::<Vec<TaskId>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert_eq!(g.len(), 200);
        assert!(g.edges_respect_submission_order());
        // Each inout chain serialises on its own region: every member but
        // the first waits on the member before it — one edge, however many
        // earlier members are live — and submission sequence numbers grow
        // along the chain (the packed ids themselves carry no order).
        for chain in &chains {
            assert!(chain
                .windows(2)
                .all(|w| g.node(w[0]).seq() < g.node(w[1]).seq()));
            for (i, id) in chain.iter().enumerate() {
                assert_eq!(g.unresolved(*id), usize::from(i > 0));
            }
        }
        assert_eq!(g.edges_wired(), 4 * 49);
        // Drive everything to completion through the release protocol.
        let mut ready: Vec<TaskId> = chains.iter().map(|c| c[0]).collect();
        while let Some(id) = ready.pop() {
            g.mark_running(id);
            ready.extend(g.finish(id));
        }
        assert_eq!(g.finished_count(), 200);
        assert_eq!(g.live_nodes(), 0);
    }

    /// Concurrent finishes racing a stream of submissions never lose a
    /// release: every task completes exactly once.
    #[test]
    fn concurrent_finishes_and_submissions_release_exactly_once() {
        use std::sync::mpsc;
        let (_store, r) = store_with_regions(4);
        let g = Arc::new(TaskGraph::new());
        let (ready_tx, ready_rx) = mpsc::channel::<TaskId>();

        // Worker: finishes whatever becomes ready, forwarding releases.
        let worker_graph = Arc::clone(&g);
        let worker_tx = ready_tx.clone();
        let worker = std::thread::spawn(move || {
            let mut finished = 0u64;
            for id in ready_rx {
                worker_graph.mark_running(id);
                for next in worker_graph.finish(id) {
                    worker_tx.send(next).unwrap();
                }
                finished += 1;
                if finished == 400 {
                    break;
                }
            }
            finished
        });

        // Master: submits 100 chains of 4 inout tasks each.
        for chain in 0..100 {
            for _ in 0..4 {
                let (id, ready) = g.submit(desc(vec![Access::read_write(&r[chain % 4])]));
                if ready {
                    ready_tx.send(id).unwrap();
                }
            }
        }
        drop(ready_tx);
        assert_eq!(worker.join().unwrap(), 400);
        assert_eq!(g.finished_count(), 400);
        assert!(g.edges_respect_submission_order());
    }
}
