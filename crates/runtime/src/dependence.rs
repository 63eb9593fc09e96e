//! Dependence tracking and the Task Dependence Graph (TDG).
//!
//! When a task is submitted, the runtime compares its declared accesses with
//! the accesses of every *unfinished* previously-submitted task on the same
//! regions. Any overlap involving at least one writer creates a dependence
//! edge (this covers read-after-write, write-after-read and
//! write-after-write orderings). A task becomes ready when all its
//! predecessors have finished; the scheduler then moves it to the Ready
//! Queue, exactly as described in §II-C of the paper.
//!
//! # Concurrency model
//!
//! The graph is engineered so that the steady-state hot path — a worker
//! finishing a task and releasing its successors — acquires **no graph-wide
//! lock**:
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
//! * the per-region **live-accessor index** is sharded by region id, so
//!   pruning a finished task's accesses locks only the shards of the
//!   regions it touched — and a batch submission locks each touched shard
//!   once for the whole dependence pass;
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
//! Submission is serialised per **submission shard**, not globally: a
//! submitter locks (in ascending order) the submission shard of every
//! live-index shard its accesses map to, and holds them across id
//! assignment, the dependence pass and edge wiring
//! ([`TaskGraph::lock_submission`]). Two tasks that could ever conflict
//! share a region, therefore a live-index shard, therefore a submission
//! shard — so every conflicting pair is fully serialised, the later
//! submitter draws the larger **sequence number** (sequence numbers are
//! assigned while the common shard is held and `next_seq` is monotonic)
//! and observes the earlier task's live accesses, which keeps every edge
//! pointing from an earlier submission to a later one
//! ([`TaskGraph::edges_respect_submission_order`]). Submitters
//! with disjoint shard sets — independent sessions of a serving tier —
//! share no lock at all and proceed truly concurrently. Completions may
//! come from any worker concurrently and never take a submission lock.
//!
//! # Node lifecycle and retirement
//!
//! A node moves through `WaitingDeps → Ready → Running (→ Deferred) →
//! Finished`, and is finally **retired** — its slab slot freed and recycled
//! — once it satisfies the retirement condition:
//!
//! > the task has finished, **and** every successor that registered an edge
//! > on it has finished.
//!
//! The condition is tracked with a refcount-style *retire-hold* counter:
//! one hold for the task's own completion, plus one per registered
//! successor edge (taken under the same successor lock that registers the
//! edge). [`TaskGraph::finish_node`] releases the node's own hold and the
//! holds it took on its predecessors; whoever releases the last hold frees
//! the slot onto the shard's free list **and bumps the slot's generation**,
//! so a stale lookup with a retired id (e.g. a submitter that saw the task
//! among the live accessors an instant before it finished) fails the
//! generation compare and observes "gone = finished" instead of aliasing
//! the slot's next occupant — no ABA, with no id → slot map to maintain.
//! This bounds the graph's steady-state memory by the *live* task window
//! instead of the total submitted count — the [`TaskGraph::live_nodes`] /
//! [`TaskGraph::retired_count`] gauges make that observable, and the slab
//! holds **no per-id state at all** (a retired id occupies zero bytes).

use crate::access::Access;
use crate::region::RegionId;
use crate::task::{TaskDesc, TaskId};
use atm_sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use atm_sync::{Mutex, MutexGuard, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Number of node-slab shards (spreads lookup read-locks across cache
/// lines). Fixed by the shard field of the [`TaskId`] bit layout.
const NODE_SHARDS: usize = TaskId::SHARDS;
/// Number of live-accessor shards (spreads per-region bookkeeping locks).
const LIVE_SHARDS: usize = 16;

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
    list: Vec<TaskId>,
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
    /// Retirement refcount: 1 for the task's own completion plus 1 per
    /// registered successor edge. The releaser of the last hold frees the
    /// node's slab slot (see the module docs on retirement).
    retire_holds: AtomicUsize,
    /// The predecessors this node registered edges on (their retire holds
    /// are released when this node finishes). Holding the `Arc` keeps a
    /// predecessor's memory valid even after its slot was recycled.
    preds: Mutex<Vec<Arc<TaskNode>>>,
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

    /// The task's descriptor (accesses, type, per-instance memo opt-in).
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

/// The live-accessor map of one shard: per region, the accesses of every
/// unfinished task touching it.
type LiveMap = HashMap<RegionId, HashMap<TaskId, Vec<Access>>>;

/// One shard of the live-accessor index.
type LiveShard = Mutex<LiveMap>;

/// Exclusive hold of the submission shards a set of regions maps to,
/// returned by [`TaskGraph::lock_submission`]. While a permit is held, no
/// other submitter can insert (and no deregistration can race) a task
/// touching those regions — which is what lets [`crate::Runtime`] validate
/// a descriptor against the store and then submit it under one critical
/// section, atomically with respect to region retirement.
#[must_use = "a submission permit only excludes other submitters while it is held"]
pub struct SubmissionPermit<'g> {
    guards: Vec<MutexGuard<'g, ()>>,
}

impl std::fmt::Debug for SubmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmissionPermit")
            .field("shards", &self.guards.len())
            .finish()
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
            retire_holds: AtomicUsize::new(1),
            preds: Mutex::new(Vec::new()),
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
    /// write lock by the releaser of the node's last retire hold.
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
    /// Accesses of unfinished tasks, indexed per region and sharded by
    /// region id. Finished tasks are pruned, so lookups only scan live
    /// accessors (a handful per region in the block-structured benchmarks).
    live: Vec<LiveShard>,
    /// Per-shard submission locks, one per live-index shard. A submitter
    /// locks the shards its accesses touch (ascending, deadlock-free);
    /// conflicting submitters always share a shard, disjoint ones never
    /// contend (see the module docs). Completions never take these.
    submission: Vec<Mutex<()>>,
    /// Monotonic submission sequence counter: assigns each task its dense
    /// creation-order rank ([`TaskNode::seq`]) and picks its slab shard
    /// (`seq % NODE_SHARDS`).
    next_seq: AtomicU64,
    finished: AtomicU64,
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
            submission: (0..LIVE_SHARDS).map(|_| Mutex::new(())).collect(),
            next_seq: AtomicU64::new(0),
            finished: AtomicU64::new(0),
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

    /// Number of finished tasks.
    pub fn finished_count(&self) -> u64 {
        self.finished.load(Ordering::SeqCst)
    }

    /// Number of retired tasks (finished, all successors finished, slab
    /// slot freed).
    pub fn retired_count(&self) -> u64 {
        self.retired.load(Ordering::SeqCst)
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
    /// finished, all its successors finished, and its slot was recycled
    /// (the generation compare fails for the stale id). A bounds check plus
    /// a generation compare under the shard's read lock — no hash probe.
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

    /// Locks the submission shards the given regions map to, in ascending
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
        SubmissionPermit {
            guards: self
                .submission
                .iter()
                .enumerate()
                .filter(|(i, _)| touched[*i])
                .map(|(_, lock)| lock.lock())
                .collect(),
        }
    }

    /// True when at least one unfinished task declares an access on
    /// `region`. Sampled under the region's live-index shard lock; hold the
    /// region's [`TaskGraph::lock_submission`] permit to keep the answer
    /// stable against concurrent submitters (deregistration does).
    pub fn region_has_live_accessors(&self, region: RegionId) -> bool {
        self.live[Self::live_shard_index(region)]
            .lock()
            .get(&region)
            .is_some_and(|accessors| !accessors.is_empty())
    }

    /// Number of regions currently present in the live-accessor index
    /// (regions with at least one unfinished accessor). Entries are pruned
    /// as their last live task finishes, so this gauge follows the live
    /// working set, not every region ever touched.
    pub fn live_index_regions(&self) -> usize {
        self.live.iter().map(|shard| shard.lock().len()).sum()
    }

    /// Releases one retire hold on `node`; the releaser of the last hold
    /// frees the slab slot.
    fn release_retire_hold(&self, node: &TaskNode) {
        let prev = node.retire_holds.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "retire hold released twice");
        if prev == 1 {
            debug_assert_eq!(node.state(), NodeState::Finished);
            self.shards[node.id.shard()]
                .write()
                .remove(node.id.slot(), node.id.generation());
            self.retired.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Inserts a task, computes its dependences and returns `(id, ready)`.
    ///
    /// `ready == true` means the submitter owns the task's transition to the
    /// Ready Queue. `ready == false` means a predecessor was still in flight
    /// at registration time; whichever predecessor performs the final
    /// release will report the task as newly ready from [`TaskGraph::finish`].
    ///
    /// Conflicting submissions are serialised internally (per submission
    /// shard — see the module docs); completions run concurrently and never
    /// take a submission lock. This is the lean single-task path — no batch
    /// scaffolding allocated; see [`TaskGraph::submit_batch`] for the
    /// lock-amortised wave path. The two are semantically identical
    /// (property-tested against each other).
    pub fn submit(&self, desc: TaskDesc) -> (TaskId, bool) {
        let permit = self.lock_submission(desc.accesses.iter().map(|a| a.region));
        self.submit_with(&permit, desc)
    }

    /// The body of [`TaskGraph::submit`], for callers that already hold the
    /// permit covering the descriptor's regions (the runtime validates the
    /// descriptor against the store inside the same critical section, so a
    /// region cannot retire between the check and the insertion).
    pub fn submit_with(&self, _permit: &SubmissionPermit<'_>, desc: TaskDesc) -> (TaskId, bool) {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let shard_index = (seq as usize) % NODE_SHARDS;

        // Insert the node into the slab *before* registering edges: a
        // predecessor finishing mid-registration must be able to look the
        // node up. The submission guard (unresolved = 1) keeps the task
        // from becoming ready until registration is complete. The id is
        // minted inside the shard (it packs the slot the node lands in).
        let node = self.shards[shard_index]
            .write()
            .insert(shard_index, seq, desc);
        let id = node.id();

        // Collect unique predecessors among live (unfinished) accessors,
        // registering this task's own accesses as live in the same pass.
        let mut preds: BTreeSet<TaskId> = BTreeSet::new();
        for access in &node.desc.accesses {
            let mut shard = self.live[Self::live_shard_index(access.region)].lock();
            let per_region = shard.entry(access.region).or_default();
            for (tid, prev_accesses) in per_region.iter() {
                if *tid != id && prev_accesses.iter().any(|prev| access.conflicts_with(prev)) {
                    preds.insert(*tid);
                }
            }
            per_region.entry(id).or_default().push(access.clone());
        }

        // Register one edge per predecessor (see `wire_edges`).
        self.wire_edges(&node, &preds);

        // Release the submission guard. Exactly one decrement observes the
        // counter reach zero; if it is ours, the task is ready now.
        let ready = node.unresolved.fetch_sub(1, Ordering::SeqCst) == 1;
        if ready {
            node.set_state(NodeState::Ready);
        }
        (id, ready)
    }

    /// Registers one edge per predecessor of `node`. Holding the
    /// predecessor's successor lock while incrementing `unresolved` (and
    /// taking the retire hold) guarantees the matching decrement —
    /// performed by the predecessor's finish, which needs the same lock to
    /// close the list — cannot arrive first. A predecessor observed live
    /// during the dependence pass may have finished (closed list) or even
    /// retired (gone from the slab) since: both mean the dependence is
    /// already satisfied.
    fn wire_edges<'a>(&self, node: &Arc<TaskNode>, preds: impl IntoIterator<Item = &'a TaskId>) {
        for pred in preds {
            let Some(pred_node) = self.try_node(*pred) else {
                continue;
            };
            let registered = {
                let mut slot = pred_node.successors.lock();
                if slot.closed {
                    false
                } else {
                    slot.list.push(node.id);
                    node.unresolved.fetch_add(1, Ordering::SeqCst);
                    pred_node.retire_holds.fetch_add(1, Ordering::SeqCst);
                    true
                }
            };
            if registered {
                node.preds.lock().push(pred_node);
            }
        }
    }

    /// Inserts a batch of tasks, computes their dependences (including the
    /// dependences *between* batch members) and returns one `(id, ready)`
    /// per task, in submission order.
    ///
    /// The amortisation over [`TaskGraph::submit`] in a loop: the touched
    /// submission shards are locked once, each touched slab shard's write
    /// lock is taken once, and each touched live-index shard is locked once
    /// for the whole dependence pass — instead of once per task. Dependence
    /// edges are wired in a single pass; the semantics (ids, edges, ready
    /// transitions) are exactly those of submitting the descriptors one by
    /// one.
    pub fn submit_batch(&self, descs: Vec<TaskDesc>) -> Vec<(TaskId, bool)> {
        let permit = self.lock_submission(
            descs
                .iter()
                .flat_map(|d| d.accesses.iter().map(|a| a.region)),
        );
        self.submit_batch_with(&permit, descs)
    }

    /// The body of [`TaskGraph::submit_batch`], for callers that already
    /// hold the permit covering every region in the batch.
    pub fn submit_batch_with(
        &self,
        _permit: &SubmissionPermit<'_>,
        descs: Vec<TaskDesc>,
    ) -> Vec<(TaskId, bool)> {
        if descs.is_empty() {
            return Vec::new();
        }
        let batch_len = descs.len();
        let first = self.next_seq.fetch_add(batch_len as u64, Ordering::SeqCst);

        // Slab insertion (which creates the nodes and mints their packed
        // ids) happens *before* edge registration — a predecessor finishing
        // mid-registration must be able to look a batch member up — with
        // one write lock per touched shard. Members land in the same shards
        // and draw the same ids as the equivalent one-by-one submissions
        // (`seq % NODE_SHARDS`, slots recycled LIFO), which is what keeps
        // the two paths property-testable against each other. The
        // submission guard (unresolved = 1) keeps each task from becoming
        // ready until its edges are wired.
        let mut descs: Vec<Option<TaskDesc>> = descs.into_iter().map(Some).collect();
        let mut nodes: Vec<Option<Arc<TaskNode>>> = (0..batch_len).map(|_| None).collect();
        for (shard_index, shard) in self.shards.iter().enumerate() {
            let mut members = (0..batch_len)
                .filter(|offset| ((first + *offset as u64) as usize) % NODE_SHARDS == shard_index)
                .peekable();
            if members.peek().is_none() {
                continue;
            }
            let mut shard = shard.write();
            for offset in members {
                let desc = descs[offset].take().expect("each descriptor moves once");
                nodes[offset] = Some(shard.insert(shard_index, first + offset as u64, desc));
            }
        }
        let nodes: Vec<Arc<TaskNode>> = nodes
            .into_iter()
            .map(|n| n.expect("every member was inserted"))
            .collect();

        // Dependence pass: lock every touched live-index shard once, then
        // walk the batch in submission order — earlier batch members become
        // visible as live accessors to later ones, exactly as in the
        // one-by-one path. (Completions lock live shards one at a time and
        // never wait on a second one while holding a first, so holding the
        // whole touched set here cannot deadlock.)
        let mut touched = [false; LIVE_SHARDS];
        for node in &nodes {
            for access in &node.desc.accesses {
                touched[Self::live_shard_index(access.region)] = true;
            }
        }
        let mut preds_per_task: Vec<BTreeSet<TaskId>> = Vec::with_capacity(nodes.len());
        {
            let mut guards: Vec<Option<MutexGuard<'_, LiveMap>>> = self
                .live
                .iter()
                .enumerate()
                .map(|(i, shard)| touched[i].then(|| shard.lock()))
                .collect();
            for node in &nodes {
                let mut preds: BTreeSet<TaskId> = BTreeSet::new();
                for access in &node.desc.accesses {
                    let shard = guards[Self::live_shard_index(access.region)]
                        .as_mut()
                        .expect("touched shard is locked");
                    let per_region = shard.entry(access.region).or_default();
                    for (tid, prev_accesses) in per_region.iter() {
                        if *tid != node.id
                            && prev_accesses.iter().any(|prev| access.conflicts_with(prev))
                        {
                            preds.insert(*tid);
                        }
                    }
                    per_region.entry(node.id).or_default().push(access.clone());
                }
                preds_per_task.push(preds);
            }
        }

        // Edge wiring, one pass over the batch.
        for (node, preds) in nodes.iter().zip(&preds_per_task) {
            self.wire_edges(node, preds);
        }

        // Release the submission guards in id order. Exactly one decrement
        // observes each counter reach zero; if it is ours, the task is
        // ready now.
        nodes
            .iter()
            .map(|node| {
                let ready = node.unresolved.fetch_sub(1, Ordering::SeqCst) == 1;
                if ready {
                    node.set_state(NodeState::Ready);
                }
                (node.id, ready)
            })
            .collect()
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
    /// waiter. In that case the task is already `Finished` (it may even have
    /// retired) and this call is a no-op — only a `Running` task actually
    /// moves to `Deferred`.
    pub fn mark_deferred(&self, id: TaskId) {
        let Some(node) = self.try_node(id) else {
            // Finished, all successors finished, slot recycled: the same
            // tolerated no-op as the already-`Finished` case below.
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

    /// The PR-4 deferred hand-off bug, preserved verbatim as a regression
    /// seed for the `atm-check` model suite (`tests/model/ikt_regression.rs`):
    /// it *asserts* the task is still `Running` and then stores `Deferred`,
    /// instead of tolerating a producer that already finished the waiter.
    /// The checker must rediscover the resulting panic deterministically
    /// within a bounded schedule budget; [`TaskGraph::mark_deferred`] (the
    /// shipped CAS fix) must pass the same budget clean. Never call this
    /// from production code.
    #[doc(hidden)]
    pub fn mark_deferred_legacy(&self, id: TaskId) {
        let node = self.node(id);
        // BUG (shipped in PR 4): between the deferral registration and this
        // call, the in-flight producer can finish the waiter; the state is
        // then `Finished`, not `Running`, and the worker dies here.
        assert_eq!(
            node.state(),
            NodeState::Running,
            "only running tasks can be deferred"
        );
        node.set_state(NodeState::Deferred);
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

    /// Completes a task: prunes its live accesses, releases its successors,
    /// releases its retirement holds (its own and those it took on its
    /// predecessors) and **appends** the successors that became ready to
    /// `newly_ready` — the caller-owned scratch that lets a worker
    /// aggregate the releases of a whole finish cycle (the executed task
    /// plus its producer-completed deferred waiters) into one ready-queue
    /// packet without allocating per finish.
    ///
    /// Takes no graph-wide lock: only the live-index shards of the regions
    /// this task touched, the node's own successor lock, one atomic
    /// decrement per successor — and, for each node this completion
    /// actually retires, one slab-shard write lock to free the slot.
    pub fn finish_node_into(&self, node: &TaskNode, newly_ready: &mut Vec<TaskId>) {
        let id = node.id();
        let state = node.state();
        assert!(
            matches!(state, NodeState::Running | NodeState::Deferred),
            "finish() on a task that is not running or deferred: {state:?}"
        );
        node.set_state(NodeState::Finished);
        self.finished.fetch_add(1, Ordering::SeqCst);

        // Prune live accesses of this task (per-region shard locks only).
        for access in &node.desc.accesses {
            let mut shard = self.live[Self::live_shard_index(access.region)].lock();
            if let Some(per_region) = shard.get_mut(&access.region) {
                per_region.remove(&id);
                if per_region.is_empty() {
                    shard.remove(&access.region);
                }
            }
        }

        // Close the successor list: from here on, new submissions treat this
        // task as finished and register no edges onto it.
        let successors = {
            let mut slot = node.successors.lock();
            slot.closed = true;
            std::mem::take(&mut slot.list)
        };

        for succ in successors {
            // Successors with an unreleased edge cannot retire (their own
            // completion hold is still pending), so the lookup must succeed.
            let succ_node = self.node(succ);
            let prev = succ_node.unresolved.fetch_sub(1, Ordering::SeqCst);
            debug_assert!(prev > 0, "successor with no unresolved dependences");
            if prev == 1 {
                debug_assert_eq!(succ_node.state(), NodeState::WaitingDeps);
                succ_node.set_state(NodeState::Ready);
                newly_ready.push(succ);
            }
        }

        // Retirement: hand back the holds this task took on its
        // predecessors, then its own completion hold. Whoever releases a
        // node's last hold frees its slot.
        let preds = std::mem::take(&mut *node.preds.lock());
        for pred in &preds {
            self.release_retire_hold(pred);
        }
        self.release_retire_hold(node);
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
            .map_or_else(Vec::new, |node| node.successors.lock().list.clone())
    }

    /// Number of unresolved predecessors of a task (for tests and
    /// diagnostics; zero for retired tasks). The submission guard is
    /// released before [`TaskGraph::submit`] returns, so this is exactly
    /// the number of in-flight predecessors.
    pub fn unresolved(&self, id: TaskId) -> usize {
        self.try_node(id)
            .map_or(0, |node| node.unresolved.load(Ordering::SeqCst))
    }

    /// Checks the structural invariant that every edge goes from an earlier
    /// submission (smaller [`TaskNode::seq`]) to a later one — which makes
    /// the TDG acyclic by construction. Walks the resident nodes of every
    /// shard; a successor that has already retired is skipped (retired =
    /// finished, so the edge was consumed — a retired successor can still
    /// appear in a live predecessor's list when the predecessor stays
    /// resident on behalf of another unfinished successor). Used by tests.
    pub fn edges_respect_submission_order(&self) -> bool {
        let mut resident: Vec<Arc<TaskNode>> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            resident.extend(shard.slots.iter().filter_map(|s| s.node.clone()));
        }
        resident.iter().all(|node| {
            node.successors.lock().list.iter().all(|succ| {
                self.try_node(*succ)
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
    fn ranged_accesses_only_conflict_when_overlapping() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (_w1, _) = g.submit(desc(vec![Access::write(&r[0]).with_range(0..32)]));
        let (w2, ready2) = g.submit(desc(vec![Access::write(&r[0]).with_range(32..64)]));
        assert!(ready2, "disjoint block writers must be independent");
        let (reader, ready3) = g.submit(desc(vec![Access::read(&r[0]).with_range(16..48)]));
        assert!(
            !ready3,
            "a reader straddling both blocks depends on both writers"
        );
        assert_eq!(g.unresolved(reader), 2);
        let _ = w2;
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
    fn a_predecessor_retires_only_after_its_successors_finish() {
        let (_store, r) = store_with_regions(1);
        let g = TaskGraph::new();
        let (producer, _) = g.submit(desc(vec![Access::write(&r[0])]));
        let (consumer, _) = g.submit(desc(vec![Access::read(&r[0])]));
        g.mark_running(producer);
        g.finish(producer);
        // The producer finished but its successor has not: the edge keeps a
        // retire hold, so the node stays resident.
        assert_eq!(g.retired_count(), 0);
        assert!(g.try_node(producer).is_some());
        g.mark_running(consumer);
        g.finish(consumer);
        // The consumer's finish releases the producer's last hold and its
        // own; both retire.
        assert_eq!(g.retired_count(), 2);
        assert_eq!(g.live_nodes(), 0);
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
        let program = || {
            vec![
                desc(vec![Access::write(&r[0])]),
                desc(vec![Access::read(&r[0]), Access::write(&r[1])]),
                desc(vec![Access::read(&r[1])]),
                desc(vec![Access::read(&r[0])]),
            ]
        };
        let one_by_one: Vec<(TaskId, bool)> =
            program().into_iter().map(|d| singleton.submit(d)).collect();
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
        assert_eq!(g.live_index_regions(), 0);
        assert!(!g.region_has_live_accessors(r[0].id()));
        let (t, _) = g.submit(desc(vec![Access::write(&r[0]), Access::read(&r[1])]));
        assert!(g.region_has_live_accessors(r[0].id()));
        assert!(g.region_has_live_accessors(r[1].id()));
        assert_eq!(g.live_index_regions(), 2);
        g.mark_running(t);
        g.finish(t);
        assert!(!g.region_has_live_accessors(r[0].id()));
        assert_eq!(g.live_index_regions(), 0, "pruned entries leave the index");
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
        // Each inout chain serialises on its own region: member i waits on
        // all i live earlier members, and submission sequence numbers grow
        // along the chain (the packed ids themselves carry no order).
        for chain in &chains {
            assert!(chain
                .windows(2)
                .all(|w| g.node(w[0]).seq() < g.node(w[1]).seq()));
            for (i, id) in chain.iter().enumerate() {
                assert_eq!(g.unresolved(*id), i);
            }
        }
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
