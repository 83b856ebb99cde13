//! The per-node query processor (the paper's Figure 1 box).
//!
//! Each [`QueryProcessor`] is a [`NodeApp`] driven by the network simulator.
//! It keeps the node's neighbor table in sync with link events from the
//! routing infrastructure, accepts query installations (disseminated by
//! flooding, with piggy-backed installation when tuples for a not-yet-known
//! query arrive first — §3.5), and executes every installed query as a
//! distributed dataflow:
//!
//! * received and locally derived tuples are batched; every
//!   [`BATCH_INTERVAL`] (200 ms, as in the paper's experiments, §9.1.1) the node
//!   runs a local semi-naïve fixpoint over its localized rules,
//! * derived tuples whose home is another node are shipped there, and
//!   tuples required by remote joins are shipped to the join's anchor node
//!   according to the program's [`crate::localize::ShipSpec`]s (the
//!   Figure 2 "clouds"),
//! * aggregate selections (§7.1) prune dominated tuples before they are
//!   stored or shipped — with per-next-hop granularity so that alternate
//!   routes survive for failure recovery (§8),
//! * link failures and metric changes arrive as neighbor-table updates and
//!   are folded into the same incremental dataflow (cost-∞ poisoning),
//! * completed best paths can be written into the node-local, cross-query
//!   `bestPathCache` table and installed along the reverse path, enabling
//!   the multi-query sharing of §7.3.
//!
//! Batches travel between neighbors over the [`HopTransport`] (sequenced,
//! acknowledged and retransmitted when the deployment turns reliability on).

use crate::localize::LocalizedProgram;
use crate::query::{QueryId, QueryLibrary, QuerySpec};
use crate::transport::HopTransport;
pub use crate::transport::{ReliabilityConfig, StreamSeq};
use dr_datalog::builtins::Builtins;
use dr_datalog::database::{Database, Scan};
use dr_datalog::eval::{apply_aggregate, FiringLog, RelationSource, RuleEval};
use dr_datalog::rewrite::AggSelection;
use dr_netsim::{Context, LinkEvent, NodeApp, SimDuration};
use dr_provenance::{ProvId, ProvRecord, ProvRef, ProvStore};
use dr_types::{Cost, NodeId, RelId, Tuple, TupleKey, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Wire tag linking a shipped tuple back to its derivation record:
/// `Some((node, id))` points at the record `id` in `node`'s provenance
/// arena; `None` marks a base fact (or a deployment not recording
/// provenance at all).
pub type ProvTag = Option<(NodeId, ProvId)>;

/// Messages exchanged between query processors.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// Install (disseminate) a query known to the shared [`QueryLibrary`].
    Install {
        /// The query being installed.
        qid: QueryId,
    },
    /// A batch of tuples addressed to the receiving node. Each tuple's
    /// relation travels as its fixed-width interned [`RelId`] instead of
    /// the relation name; the receiver validates every id against the
    /// query's symbol catalog (`rel_catalog`) and drops unbound ids. In
    /// this single-process simulation the interned id *is* the wire
    /// representation; a multi-process transport must translate through
    /// the catalog's dense wire tags (`RelCatalog::wire_tag` /
    /// `RelCatalog::decode`) at the boundary instead, since raw interner
    /// ids are only meaningful within one process.
    Tuples {
        /// The query these tuples belong to (also selects the catalog the
        /// receiver validates the relation ids against).
        qid: QueryId,
        /// Sequencing header of this batch on the (sender, receiver, query)
        /// stream, when the deployment runs the reliable transport. `None`
        /// is the legacy fire-and-forget path: no acknowledgment, no
        /// retransmission, no duplicate suppression.
        seq: Option<StreamSeq>,
        /// The shipped tuples.
        items: Vec<Tuple>,
        /// Per-tuple provenance tags, parallel to `items`, linking each
        /// shipped tuple back to the record of the firing that derived it
        /// (`None` entries are base facts). Empty — costing zero wire
        /// bytes — whenever the query does not record provenance.
        provs: Vec<ProvTag>,
    },
    /// Cumulative acknowledgment of sequence-numbered [`NetMsg::Tuples`]
    /// batches: every batch with sequence number below `cumulative` on the
    /// (sender, receiver, query) stream has been applied.
    Ack {
        /// The acknowledged query stream.
        qid: QueryId,
        /// The next sequence number the receiver expects.
        cumulative: u64,
    },
    /// Ask the sender of tuples for an unknown query to re-offer its
    /// installation (repair of a missed `Install` flood — the counterpart
    /// of the lazy teardown repair).
    QueryRequest {
        /// The query being requested.
        qid: QueryId,
    },
    /// Tear down a query: every node that handles this removes the query's
    /// instance (stored tuples, pending buffers, prune state, compiled
    /// plans), drops the shared cache relation when the query was its last
    /// user, and forwards the teardown to its neighbors exactly once.
    Teardown {
        /// The query being torn down.
        qid: QueryId,
    },
    /// Ask `qid`'s provenance arena at the receiving node for derivation
    /// record `id` (on-demand resolution of a [`ProvRef::Remote`] pointer
    /// while materializing a distributed proof tree).
    ProvFetch {
        /// The query whose provenance store holds the record.
        qid: QueryId,
        /// The arena id being resolved.
        id: ProvId,
        /// The node the reply should be sent to (the holder of the remote
        /// pointer — a direct neighbor of the record's owner, since that is
        /// who the tagged tuple was shipped to).
        requester: NodeId,
    },
    /// Reply to a [`NetMsg::ProvFetch`]: the record, or `None` when it has
    /// been pruned (or the query is gone). `Local` body refs inside the
    /// record are relative to `node`, the replying owner.
    ProvReply {
        /// The query the record belongs to.
        qid: QueryId,
        /// The node that owns (and replied with) the record.
        node: NodeId,
        /// The arena id that was asked for.
        id: ProvId,
        /// The record, if it still exists.
        record: Option<Box<ProvRecord>>,
    },
    /// Install a cached best path along the reverse path (multi-query
    /// sharing, §7.3). Forwarded hop by hop along `suffix`.
    CacheInstall {
        /// Cross-query cache relation to install into.
        cache: RelId,
        /// Final destination of the cached path.
        dest: NodeId,
        /// Remaining path from the receiving node to `dest` (first element
        /// is the receiving node itself).
        suffix: Vec<NodeId>,
        /// Cost of the remaining path.
        cost: Cost,
    },
}

impl NetMsg {
    /// Approximate wire size used for bandwidth accounting. Relation
    /// identity costs the fixed-width [`dr_types::rel::WIRE_TAG_BYTES`]
    /// tag (inside [`Tuple::wire_size`]) rather than `name.len()` bytes
    /// per tuple.
    pub fn wire_size(&self) -> usize {
        match self {
            NetMsg::Install { .. } | NetMsg::Teardown { .. } | NetMsg::QueryRequest { .. } => 64,
            NetMsg::Tuples { seq, items, provs, .. } => {
                // The sequencing header costs 20 bytes (tag + seq + base)
                // only when the reliable transport is on, so fire-and-forget
                // deployments keep their exact legacy wire accounting. The
                // same holds for provenance tags: the vector is empty unless
                // the query records provenance, so non-recording deployments
                // pay zero extra bytes.
                let seq_bytes = if seq.is_some() { 20 } else { 0 };
                let prov_bytes =
                    provs.iter().map(|tag| if tag.is_some() { 13 } else { 1 }).sum::<usize>();
                16 + seq_bytes + prov_bytes + items.iter().map(Tuple::wire_size).sum::<usize>()
            }
            NetMsg::Ack { .. } => 24,
            NetMsg::ProvFetch { .. } => 64,
            NetMsg::ProvReply { record, .. } => {
                let record_bytes = record.as_ref().map_or(0, |rec| {
                    rec.tuple.wire_size()
                        + rec.body.iter().map(|(t, _)| t.wire_size() + 13).sum::<usize>()
                });
                64 + record_bytes
            }
            NetMsg::CacheInstall { suffix, .. } => {
                24 + dr_types::rel::WIRE_TAG_BYTES + 4 * suffix.len()
            }
        }
    }
}

/// How often buffered tuples are processed (the paper uses 200 ms).
pub const BATCH_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// Name of the neighbor-table relation exposed to queries.
const LINK_RELATION: &str = "link";

/// Configuration shared by every processor in a deployment.
#[derive(Debug, Clone)]
pub struct ProcessorConfig {
    /// The query library all nodes share.
    pub library: Arc<QueryLibrary>,
    /// Whether the wire can lose messages. `None` (the default) is the
    /// fire-and-forget wire: batches carry no sequence numbers, nothing is
    /// acknowledged or retransmitted. `Some` runs the reliable
    /// [`HopTransport`] — required for exact result multisets over lossy
    /// links.
    pub reliability: Option<ReliabilityConfig>,
}

impl ProcessorConfig {
    /// Standard configuration around a query library.
    pub fn new(library: Arc<QueryLibrary>) -> ProcessorConfig {
        ProcessorConfig { library, reliability: None }
    }
}

/// Runtime counters of one processor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Tuples received from other nodes.
    pub tuples_received: u64,
    /// Tuples shipped to other nodes.
    pub tuples_sent: u64,
    /// Tuples derived locally (after pruning).
    pub tuples_derived: u64,
    /// Tuples suppressed by aggregate selections.
    pub tuples_pruned: u64,
    /// ∞-cost tombstones collapsed during incremental maintenance (§8):
    /// dominated infinite-cost derivations dropped instead of being stored,
    /// shipped, and re-joined.
    pub tombstones_collapsed: u64,
    /// Received tuples dropped because their relation tag is not bound by
    /// the query's symbol catalog (a stale or corrupt wire id).
    pub tuples_rejected: u64,
    /// Aggregate-selection prune-state entries evicted because their
    /// recorded best is an ∞-cost tombstone whose invalidation wave has run
    /// (keeps the per-query prune map bounded under churn). Finite entries
    /// are never evicted — they may back *shipped* bests whose next
    /// tombstone must still pass the admission gate.
    pub prune_evicted: u64,
    /// Number of batch-processing rounds executed.
    pub batches: u64,
    /// Sequence-numbered tuple batches resent by the reliable transport.
    pub retransmits: u64,
    /// Duplicate tuple batches discarded by the reliable transport (already
    /// applied or already buffered).
    pub dups_dropped: u64,
    /// Cumulative acknowledgments sent by the reliable transport.
    pub acks_sent: u64,
    /// Sequence numbers skipped by the reliable transport, either because
    /// the sender advertised it had abandoned the missing batches
    /// (`StreamSeq::base` moved past them) or because the reorder buffer
    /// overflowed. Soft-state repair owns whatever they carried.
    pub gaps_skipped: u64,
    /// Derivation records written into provenance arenas (zero unless a
    /// query was issued with provenance recording on).
    pub prov_recorded: u64,
    /// Provenance-record fetches served for remote explanation requests.
    pub prov_fetches: u64,
}

impl ProcessorStats {
    /// Accumulate another processor's counters into this one (used by the
    /// harness to report deployment-wide totals).
    pub fn merge(&mut self, other: &ProcessorStats) {
        self.tuples_received += other.tuples_received;
        self.tuples_sent += other.tuples_sent;
        self.tuples_derived += other.tuples_derived;
        self.tuples_pruned += other.tuples_pruned;
        self.tombstones_collapsed += other.tombstones_collapsed;
        self.tuples_rejected += other.tuples_rejected;
        self.prune_evicted += other.prune_evicted;
        self.batches += other.batches;
        self.retransmits += other.retransmits;
        self.dups_dropped += other.dups_dropped;
        self.acks_sent += other.acks_sent;
        self.gaps_skipped += other.gaps_skipped;
        self.prov_recorded += other.prov_recorded;
        self.prov_fetches += other.prov_fetches;
    }
}

/// Sizes of everything a node currently stores on behalf of queries.
///
/// The residue audit of the query lifecycle: tearing a query down must
/// return every counter to its pre-issue value, otherwise a long-lived
/// service leaks a little engine state per issue→teardown cycle. The
/// teardown regression tests pin this by comparing footprints taken before
/// issuing and after tearing down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateFootprint {
    /// Installed query instances.
    pub instances: usize,
    /// Tuples stored across all per-query databases.
    pub stored_tuples: usize,
    /// Tuples waiting in per-query pending (delta) buffers.
    pub pending_tuples: usize,
    /// Aggregate-selection prune-state entries across all queries.
    pub prune_entries: usize,
    /// Relations materialized in the shared (cross-query) store.
    pub shared_relations: usize,
    /// Tuples held by the shared (cross-query) store.
    pub shared_tuples: usize,
    /// Provenance-store residue across all queries: live derivation
    /// records, tuple→provenance bindings, and cached fetched records.
    /// Zero for queries that do not record provenance; must return to zero
    /// when a recording query is torn down (Explain state must not leak
    /// across the query lifecycle).
    pub prov_records: usize,
}

impl StateFootprint {
    /// Accumulate another node's footprint (deployment-wide totals).
    pub fn merge(&mut self, other: &StateFootprint) {
        self.instances += other.instances;
        self.stored_tuples += other.stored_tuples;
        self.pending_tuples += other.pending_tuples;
        self.prune_entries += other.prune_entries;
        self.shared_relations += other.shared_relations;
        self.shared_tuples += other.shared_tuples;
        self.prov_records += other.prov_records;
    }

    /// True when nothing is stored at all.
    pub fn is_empty(&self) -> bool {
        *self == StateFootprint::default()
    }
}

/// Local-store row count below which an instance keeps its static plans.
///
/// Re-planning compiles every rule of the query again (a few µs per rule,
/// per node); on stores this small a bad join order costs less than the
/// compile, so short-lived pair queries on sparse nodes would pay more to
/// plan than to run. Stores that grow past the floor — protocol-style
/// queries that accumulate paths and advertisements — re-plan once and
/// amortize the compile over every subsequent batch.
const REPLAN_MIN_ROWS: usize = 192;

/// Consecutive idle, tombstone-free batches required before a queued
/// revival round may run. A batch that starts with no pending deltas only
/// proves the invalidation wave has passed *this node*; on dense overlays
/// a wave keeps bouncing between farther nodes for many batch intervals,
/// and reviving into it re-floods routes the in-flight poisons are about
/// to kill — each re-flood feeds the wave new tombstones, whose arrival
/// queues further revivals, a self-sustaining storm that melts the 36-node
/// dense-overlay churn figure. Demanding a short window with no ∞
/// tombstone sightings either is a cheap local proxy for "the wave has
/// died down globally", and it spaces repeat rounds automatically: a round
/// drains the whole queue, so the queue can only refill through new
/// tombstones, which reset this very counter.
const REVIVE_QUIET_BATCHES: u32 = 2;

/// Per-installed-query state.
struct Instance {
    spec: Arc<QuerySpec>,
    db: Database,
    /// Compiled evaluation plans, one per localized rule (same order as
    /// `spec.program.rules`). Installation starts from the spec's shared
    /// statically-compiled plans (every local table is empty then, so they
    /// are identical across nodes); once the local store grows past
    /// [`REPLAN_MIN_ROWS`] the instance re-plans once against real
    /// cardinalities and swaps in its own vector (see [`Instance::replan`]).
    compiled: Arc<Vec<RuleEval>>,
    /// Whether the one-shot cardinality re-plan has happened.
    replanned: bool,
    /// Deltas accumulated since the last batch, keyed by interned relation.
    pending: HashMap<RelId, Vec<Tuple>>,
    /// Aggregate-selection state: (input relation, prune key) → (identity
    /// key of current best, its value). Bounded: entries whose backing
    /// stored tuple disappears are evicted (see
    /// [`Instance::evict_stale_prune_groups`]).
    prune: HashMap<(RelId, Vec<Value>), (Vec<Value>, Value)>,
    /// Interned id of the spec's cross-query cache relation.
    cache_rel: RelId,
    /// Number of `prune` entries whose recorded best is an ∞ tombstone.
    /// Maintained by `prune_pass` so the eviction sweep can be skipped
    /// entirely (steady state holds thousands of finite entries and zero
    /// tombstones).
    prune_tombstones: usize,
    /// Revival requests: `(input relation, its aggregate value field,
    /// required (field, value) bindings)` for prune groups whose recorded
    /// best was just poisoned to ∞. Semi-naïve evaluation alone cannot
    /// repair such a group: the surviving alternatives are *stored* tuples,
    /// not deltas, so the joins that would re-derive (and re-ship) them
    /// never re-fire. Each request re-injects this node's stored finite
    /// tuples matching the dead group's non-location columns as deltas at
    /// the next batch round (see [`QueryProcessor::process_revivals`]).
    revive: std::collections::HashSet<ReviveRequest>,
    /// Set by `prune_pass` whenever an ∞ tombstone reaches this instance —
    /// the signal that an invalidation wave is still active nearby. Cleared
    /// (into `revive_quiet = 0`) at the start of every batch.
    poison_seen: bool,
    /// Consecutive batches that started idle with no tombstone sightings.
    /// Queued revivals only run once this reaches
    /// [`REVIVE_QUIET_BATCHES`].
    revive_quiet: u32,
    /// Derivation-provenance arena, allocated only when the spec asks for
    /// recording ([`QuerySpec::record_provenance`]). `None` means the query
    /// runs the exact pre-provenance hot path: no store, no per-firing
    /// bookkeeping, empty wire tags. Owned by the instance so teardown
    /// drops every record with the rest of the query's state.
    prov: Option<ProvStore>,
    installed: bool,
}

/// A revival request: `(input relation, its aggregate value field, required
/// (field, value) bindings)` — see [`Instance::revive`].
type ReviveRequest = (RelId, usize, Vec<(usize, Value)>);

impl Instance {
    fn new(spec: Arc<QuerySpec>) -> Instance {
        let mut db = Database::new();
        for (rel, keys) in spec.program.key_declarations() {
            db.declare_key(rel, keys);
        }
        // Aggregate outputs are keyed by their group-by columns so that
        // recomputation replaces the previous value instead of accumulating.
        for lrule in &spec.program.rules {
            let head = &lrule.rule.head;
            if head.has_aggregate() {
                let group: Vec<usize> = head
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| matches!(t, dr_datalog::ast::HeadTerm::Plain(_)))
                    .map(|(i, _)| i)
                    .collect();
                db.declare_key(head.relation.as_str(), group);
            }
        }
        // Reuse the spec's statically compiled plans (shared across nodes)
        // and declare the secondary indexes their probes will hit, so
        // per-batch evaluation joins against stored, incrementally-
        // maintained indexes instead of re-gathering and re-hashing table
        // contents.
        let compiled = spec.static_plans();
        for plan in compiled.iter() {
            for (rel, field) in plan.probe_fields() {
                db.declare_index(rel, field);
            }
        }
        let cache_rel = RelId::intern(&spec.cache_relation);
        let prov = spec.record_provenance.then(ProvStore::new);
        Instance {
            spec,
            db,
            compiled,
            replanned: false,
            pending: HashMap::new(),
            prune: HashMap::new(),
            cache_rel,
            prune_tombstones: 0,
            revive: std::collections::HashSet::new(),
            poison_seen: false,
            revive_quiet: 0,
            prov,
            installed: false,
        }
    }

    /// Re-compile every rule plan against the local store's current
    /// cardinalities. Installation-time plans are static — every table is
    /// empty at that point — so the first batch that runs with at least
    /// [`REPLAN_MIN_ROWS`] stored tuples gets to re-order joins by real row
    /// counts. One shot per query: local relation sizes stay within an
    /// order of magnitude after the initial fill, and re-planning per batch
    /// would thrash the plan cache.
    ///
    /// Returns the new plans' probe fields so the caller can mirror the
    /// index declarations onto the shared (cross-query) store.
    fn replan(&mut self) -> Vec<(RelId, usize)> {
        let stats = self.db.cardinalities();
        if stats.is_empty() {
            return Vec::new();
        }
        self.compiled = Arc::new(
            self.spec
                .program
                .rules
                .iter()
                .map(|lrule| RuleEval::with_stats(&lrule.rule, &stats))
                .collect(),
        );
        let fields: Vec<(RelId, usize)> =
            self.compiled.iter().flat_map(|plan| plan.probe_fields()).collect();
        for &(rel, field) in &fields {
            self.db.declare_index(rel, field);
        }
        self.replanned = true;
        fields
    }

    fn has_pending(&self) -> bool {
        self.pending.values().any(|v| !v.is_empty())
    }

    /// Evict aggregate-selection prune entries of (destination, next-hop)
    /// groups whose route is dead — the recorded best is an ∞-cost
    /// tombstone (the ROADMAP follow-up: without this the map grows
    /// monotonically under churn, one entry per route group the deployment
    /// ever considered).
    ///
    /// Only ∞ entries are evictable. A finite entry may back a best that
    /// was *shipped* rather than stored locally, and it is what lets the
    /// next ∞ derivation for its group pass the `invalidates_best` gate in
    /// [`QueryProcessor::prune_pass`] — dropping it would collapse a
    /// tombstone the remote home still needs. An ∞ entry, by contrast, has
    /// already done its job: the group's invalidation was admitted and
    /// propagated. After eviction a finite revival of the group is simply
    /// admitted fresh (it would have beaten ∞ anyway), and further ∞ ties
    /// still collapse through the stored-tuple check, so recovery semantics
    /// are unchanged while dead groups stop accumulating.
    ///
    /// Returns the number of entries evicted. The sweep only runs when the
    /// map outgrows a small floor *and* actually holds tombstones (tracked
    /// by `prune_tombstones`), so converged steady-state batches — all
    /// finite entries — never pay the O(map) scan.
    fn evict_stale_prune_groups(&mut self) -> u64 {
        const SWEEP_FLOOR: usize = 64;
        if self.prune_tombstones == 0 || self.prune.len() <= SWEEP_FLOOR {
            return 0;
        }
        let before = self.prune.len();
        self.prune.retain(|_, (_, value)| !value.is_infinite_cost());
        self.prune_tombstones = 0;
        (before - self.prune.len()) as u64
    }
}

/// Read-through view over the query-local database and the node's shared
/// (cross-query) tables. Chains borrowing cursors over both stores without
/// materializing either.
struct Overlay<'a> {
    local: &'a Database,
    shared: &'a Database,
}

impl RelationSource for Overlay<'_> {
    fn scan(&self, relation: RelId) -> Scan<'_> {
        self.local.scan(relation).chain(self.shared.scan(relation))
    }

    fn probe(&self, relation: RelId, field: usize, value: &Value) -> Scan<'_> {
        self.local.probe(relation, field, value).chain(self.shared.probe(relation, field, value))
    }

    fn probe_key(&self, key: &TupleKey, fields: &[usize]) -> Scan<'_> {
        self.local.probe_key(key, fields).chain(self.shared.probe_key(key, fields))
    }
}

/// Outcome of the aggregate-selection admission check for one tuple.
enum PruneDecision {
    /// Store/ship the tuple.
    Admit,
    /// A strictly better tuple for the prune group is already known.
    Dominated,
    /// An ∞-cost tombstone that invalidates nothing this node stored or
    /// shipped — dropped instead of propagated (§8).
    TombstoneCollapsed,
}

/// The per-node query processor.
pub struct QueryProcessor {
    config: ProcessorConfig,
    /// Interned id of [`LINK_RELATION`], resolved once so per-update link
    /// tuples never hash the name.
    link_rel: RelId,
    node: NodeId,
    builtins: Builtins,
    /// Current neighbor table: neighbor → link cost (∞ when down).
    neighbors: BTreeMap<NodeId, Cost>,
    /// Cross-query shared tables (`bestPathCache`).
    shared: Database,
    instances: BTreeMap<QueryId, Instance>,
    /// Queries this node has torn down. Used to forward a teardown flood
    /// exactly once (whether or not the instance was ever installed here)
    /// and to refuse late `Install`/piggy-backed installations of a dead
    /// query. Query ids are never reused, so the set only grows with the
    /// number of queries ever torn down — a few bytes per lifecycle.
    torn_down: std::collections::BTreeSet<QueryId>,
    /// Pending batch timer id, so a retransmit timer firing is not mistaken
    /// for the batch tick (and vice versa).
    batch_timer: Option<u64>,
    /// Pending retransmit-scan timer id.
    retx_timer: Option<u64>,
    transport: HopTransport,
    stats: ProcessorStats,
}

/// Tuples queued for shipping, per destination, each with the provenance
/// tag the receiver should alias it to (`None` for base facts or
/// non-recording queries).
type Outbound = BTreeMap<NodeId, Vec<(Tuple, ProvTag)>>;

/// How a tuple entering [`QueryProcessor::route_tuple`] got here, for
/// provenance bookkeeping (ignored unless the query records provenance).
enum ProvAction {
    /// Derived by a local rule firing: record it in the arena. Carries the
    /// rule's index in the localized program and the body tuples the
    /// firing joined, in planned join order.
    Fired(u32, Vec<Tuple>),
    /// Arrived over the wire carrying a pointer to its deriving node's
    /// record: alias it.
    Wire(NodeId, ProvId),
}

impl QueryProcessor {
    /// Create a processor with the given deployment configuration.
    pub fn new(config: ProcessorConfig) -> QueryProcessor {
        // The shared store starts empty: cache relations (and their upsert
        // keys) are declared by the installation of the first query that
        // shares through them, and dropped again when their last user is
        // torn down — a long-lived service node holds no residue of
        // queries that no longer exist.
        let transport = HopTransport::new(config.reliability);
        QueryProcessor {
            config,
            link_rel: RelId::intern(LINK_RELATION),
            node: NodeId::new(0),
            builtins: Builtins::standard(),
            neighbors: BTreeMap::new(),
            shared: Database::new(),
            instances: BTreeMap::new(),
            torn_down: std::collections::BTreeSet::new(),
            batch_timer: None,
            retx_timer: None,
            transport,
            stats: ProcessorStats::default(),
        }
    }

    /// Runtime counters.
    pub fn stats(&self) -> &ProcessorStats {
        &self.stats
    }

    /// The ids of the queries installed at this node.
    pub fn installed_queries(&self) -> Vec<QueryId> {
        self.instances.keys().copied().collect()
    }

    /// All tuples of `relation` stored at this node for query `qid`.
    pub fn tuples(&self, qid: QueryId, relation: &str) -> Vec<Tuple> {
        self.instances.get(&qid).map(|i| i.db.sorted_tuples(relation)).unwrap_or_default()
    }

    /// The result tuples (of all `Query:` relations) stored at this node.
    pub fn results(&self, qid: QueryId) -> Vec<Tuple> {
        let Some(instance) = self.instances.get(&qid) else { return Vec::new() };
        let mut out = Vec::new();
        for &rel in &instance.spec.program.result_relations {
            out.extend(instance.db.sorted_tuples(rel));
        }
        out
    }

    /// Contents of the cross-query `bestPathCache` table.
    pub fn best_path_cache(&self) -> Vec<Tuple> {
        self.shared.sorted_tuples("bestPathCache")
    }

    /// The forwarding table induced by query `qid`: destination → next hop,
    /// extracted from result tuples that carry a path vector (field layout
    /// `(S, D, P, C)`) or an explicit next-hop field (`(S, D, Z, C)`).
    pub fn forwarding_table(&self, qid: QueryId) -> BTreeMap<NodeId, NodeId> {
        let mut out = BTreeMap::new();
        for t in self.results(qid) {
            if t.node_at(0) != Some(self.node) {
                continue;
            }
            let Some(dest) = t.node_at(1) else { continue };
            let cost = t.fields().last().and_then(Value::as_cost).unwrap_or(Cost::ZERO);
            if cost.is_infinite() {
                continue;
            }
            let next = t.field(2).and_then(|v| match v {
                Value::Path(p) if p.len() >= 2 => Some(p.nodes()[1]),
                Value::Node(n) => Some(*n),
                _ => None,
            });
            if let Some(next) = next {
                out.insert(dest, next);
            }
        }
        out
    }

    /// Number of aggregate-selection prune-state entries currently held for
    /// query `qid` (regression hook for the churn tests: the map must not
    /// grow monotonically across fail/join cycles).
    pub fn prune_entries(&self, qid: QueryId) -> usize {
        self.instances.get(&qid).map(|i| i.prune.len()).unwrap_or(0)
    }

    /// True when this node has processed a teardown for `qid` (and will
    /// refuse to reinstall it).
    pub fn is_torn_down(&self, qid: QueryId) -> bool {
        self.torn_down.contains(&qid)
    }

    /// Number of tuples sitting in query `qid`'s pending (delta) buffers.
    pub fn pending_tuples(&self, qid: QueryId) -> usize {
        self.instances.get(&qid).map(|i| i.pending.values().map(Vec::len).sum()).unwrap_or(0)
    }

    /// Sizes of everything this node currently stores on behalf of queries
    /// (see [`StateFootprint`]).
    pub fn state_footprint(&self) -> StateFootprint {
        let mut f = StateFootprint {
            instances: self.instances.len(),
            shared_relations: self.shared.relation_count(),
            shared_tuples: self.shared.total_tuples(),
            ..StateFootprint::default()
        };
        for instance in self.instances.values() {
            f.stored_tuples += instance.db.total_tuples();
            f.pending_tuples += instance.pending.values().map(Vec::len).sum::<usize>();
            f.prune_entries += instance.prune.len();
            f.prov_records += instance.prov.as_ref().map_or(0, ProvStore::residue);
        }
        f
    }

    /// The provenance store of query `qid` at this node (`None` when the
    /// query is not installed here or does not record provenance).
    pub fn provenance(&self, qid: QueryId) -> Option<&ProvStore> {
        self.instances.get(&qid).and_then(|i| i.prov.as_ref())
    }

    /// True when this node currently stores `tuple` in `qid`'s local
    /// database (used by `explain` to locate a route's home node).
    pub fn stores_tuple(&self, qid: QueryId, tuple: &Tuple) -> bool {
        self.instances.get(&qid).map(|i| i.db.contains(tuple)).unwrap_or(false)
    }

    /// True when this node currently has `qid` installed.
    pub fn has_query(&self, qid: QueryId) -> bool {
        self.instances.contains_key(&qid)
    }

    // -- internals ----------------------------------------------------------

    fn link_tuple(&self, neighbor: NodeId, cost: Cost) -> Tuple {
        Tuple::from_rel(
            self.link_rel,
            vec![Value::Node(self.node), Value::Node(neighbor), Value::Cost(cost)],
        )
    }

    fn schedule_batch(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.batch_timer.is_none() {
            self.batch_timer = Some(ctx.set_timer(BATCH_INTERVAL));
        }
    }

    fn install(&mut self, ctx: &mut Context<'_, NetMsg>, qid: QueryId) {
        // A torn-down query never reinstalls: late Install floods and
        // piggy-backed installations race the teardown flood, and losing
        // that race must not resurrect the query on some nodes.
        if self.torn_down.contains(&qid) {
            return;
        }
        if self.instances.get(&qid).map(|i| i.installed).unwrap_or(false) {
            return;
        }
        let Some(spec) = self.config.library.get(qid) else { return };
        if spec.share_results {
            self.shared.declare_key(spec.cache_relation.as_str(), vec![0, 1]);
        }
        let program = Arc::clone(&spec.program);
        let instance =
            self.instances.entry(qid).or_insert_with(|| Instance::new(Arc::clone(&spec)));
        instance.installed = true;
        // Mirror the plans' probe-field declarations onto the shared
        // (cross-query) store, so joins against cache relations such as
        // `bestPathCache` are index-served on both sides of the overlay.
        // Declarations for relations the shared store never materializes
        // stay pending and cost nothing.
        let probe_fields: Vec<(RelId, usize)> =
            instance.compiled.iter().flat_map(|plan| plan.probe_fields()).collect();
        for (rel, field) in probe_fields {
            self.shared.declare_index(rel, field);
        }

        // Flood the installation to all neighbors.
        let msg = NetMsg::Install { qid };
        let size = program.dissemination_size();
        let neighbor_ids: Vec<NodeId> = self.neighbors.keys().copied().collect();
        for nb in &neighbor_ids {
            ctx.send(*nb, msg.clone(), size);
        }

        // Install the query's facts: replicated relations everywhere, others
        // only at their home node.
        let mut outbound: Outbound = BTreeMap::new();
        let facts: Vec<Tuple> = spec.facts.clone();
        for fact in facts {
            self.route_tuple(qid, fact, None, &mut outbound);
        }
        // Materialize the program's own ground facts (constant rules such as
        // the `magicSources` / `magicDsts` of a pair query). Since every node
        // runs this on installation, replicated (and un-located) facts are
        // installed locally everywhere, and located facts only at their home
        // node — no shipping required.
        for fact in self.materialize_program_facts(&program) {
            self.route_tuple(qid, fact, None, &mut outbound);
        }
        // Seed the neighbor table as `link` base tuples.
        let links: Vec<Tuple> =
            self.neighbors.iter().map(|(nb, cost)| self.link_tuple(*nb, *cost)).collect();
        for link in links {
            self.route_tuple(qid, link, None, &mut outbound);
        }
        self.flush_outbound(ctx, qid, outbound);
        self.schedule_batch(ctx);
    }

    /// Handle a teardown flood: unwind every trace of `qid` at this node
    /// and forward the teardown to all neighbors exactly once (nodes that
    /// never installed the query still forward, so the flood crosses them).
    fn teardown(&mut self, ctx: &mut Context<'_, NetMsg>, qid: QueryId) {
        if !self.torn_down.insert(qid) {
            return; // already unwound and forwarded
        }
        self.uninstall(qid);
        self.transport.retire(qid);
        // The spec leaves the shared library here, at the nodes, not at the
        // issuer: removing it when the teardown is *injected* would race
        // in-flight Install floods that still need `library.get(qid)`. The
        // call is idempotent — whichever node handles the flood first wins.
        self.config.library.remove(qid);
        let msg = NetMsg::Teardown { qid };
        let size = msg.wire_size();
        let neighbor_ids: Vec<NodeId> = self.neighbors.keys().copied().collect();
        for nb in neighbor_ids {
            ctx.send(nb, msg.clone(), size);
        }
    }

    /// Drop query `qid`'s instance. The instance owns everything the query
    /// accumulated at this node — stored tuples, pending delta buffers,
    /// prune state, compiled plans — so dropping it releases all of it; the
    /// spec `Arc` (static plans, `RelCatalog`) is freed when the last node
    /// lets go. The query's shared cache relation is dropped from the
    /// cross-query store when no remaining instance uses it.
    fn uninstall(&mut self, qid: QueryId) {
        let Some(instance) = self.instances.remove(&qid) else { return };
        let cache_rel = instance.cache_rel;
        drop(instance);
        if !self.instances.values().any(|i| i.cache_rel == cache_rel) {
            self.shared.drop_relation(cache_rel);
        }
    }

    /// The ground facts of `program` that this node should store: all
    /// constant head terms of a fact rule become a tuple, kept when the
    /// fact's relation is replicated, carries no location annotation, or is
    /// homed at this node.
    fn materialize_program_facts(&self, program: &LocalizedProgram) -> Vec<Tuple> {
        let mut out = Vec::new();
        for fact in &program.facts {
            let head = &fact.head;
            let values: Option<Vec<Value>> = head
                .terms
                .iter()
                .map(|t| match t.as_plain() {
                    Some(dr_datalog::ast::Term::Const(v)) => Some(v.clone()),
                    _ => None,
                })
                .collect();
            let Some(values) = values else { continue };
            let tuple = Tuple::new(&head.relation, values);
            // Derive the home exactly like route_tuple will (catalog location
            // field), so a kept fact is always stored locally, never
            // re-shipped.
            let home = tuple.node_at(program.catalog.location_field(tuple.rel()));
            if program.is_replicated(tuple.rel()) || home.is_none() || home == Some(self.node) {
                out.push(tuple);
            }
        }
        out
    }

    /// Store or forward one tuple for query `qid`. Returns true when the
    /// tuple was newly stored locally.
    ///
    /// `prov` describes where the tuple came from for provenance purposes
    /// (a local rule firing, or a wire tag from its deriving node); it is
    /// ignored — and should be `None` — unless the query records
    /// provenance. Only *admitted* tuples are bound: dominated and
    /// collapsed derivations leave no provenance residue, and a keyed
    /// upsert forgets the displaced tuple's record, so the store tracks
    /// exactly the live routing state.
    fn route_tuple(
        &mut self,
        qid: QueryId,
        tuple: Tuple,
        prov: Option<ProvAction>,
        outbound: &mut Outbound,
    ) -> bool {
        let my_id = self.node;
        let batch = self.stats.batches;
        // Work on the instance first; side effects on other processor fields
        // (stats, shared cache) are applied after the borrow ends.
        let mut pruned = false;
        let mut collapsed = false;
        let mut stored = false;
        let mut recorded = false;
        let mut cache_entry: Option<Tuple> = None;
        {
            let Some(instance) = self.instances.get_mut(&qid) else { return false };
            let program = Arc::clone(&instance.spec.program);
            let relation = tuple.rel();

            // Aggregate-selection pruning (per next-hop granularity).
            let mut admitted = true;
            if instance.spec.aggregate_selections {
                if let Some(sel) =
                    program.agg_selections.iter().find(|s| s.input_relation == relation)
                {
                    match Self::prune_pass(instance, sel, &program, &tuple, my_id) {
                        PruneDecision::Admit => {}
                        PruneDecision::Dominated => {
                            pruned = true;
                            admitted = false;
                        }
                        PruneDecision::TombstoneCollapsed => {
                            collapsed = true;
                            admitted = false;
                        }
                    }
                }
            }

            if admitted {
                // Bind the admitted tuple's provenance. A firing is
                // recorded at the deriving node even when the tuple's home
                // is remote: the shipped copy links back here, and
                // `ProvFetch` resolves the pointer on demand.
                let mut tag: ProvTag = None;
                // A wire tag is only aliased into the store if the tuple is
                // actually stored below — a tuple merely relayed onward must
                // not leave a binding at the relay.
                let mut wire_ref: Option<ProvRef> = None;
                if let Some(store) = instance.prov.as_mut() {
                    match prov {
                        Some(ProvAction::Fired(rule, body)) => {
                            let body_refs: Vec<(Tuple, ProvRef)> = body
                                .into_iter()
                                .map(|b| {
                                    let r = store.resolve(&b);
                                    (b, r)
                                })
                                .collect();
                            let pid = store.record(tuple.clone(), rule, my_id, batch, body_refs);
                            recorded = true;
                            tag = Some((my_id, pid));
                        }
                        Some(ProvAction::Wire(origin, pid)) => {
                            wire_ref = Some(if origin == my_id {
                                ProvRef::Local(pid)
                            } else {
                                ProvRef::Remote(origin, pid)
                            });
                            tag = Some((origin, pid));
                        }
                        None => {}
                    }
                }

                let loc_field = program.catalog.location_field(relation);
                let home = tuple.node_at(loc_field);
                let replicated = program.is_replicated(relation);

                match home {
                    Some(h) if h != my_id && !replicated => {
                        outbound.entry(h).or_default().push((tuple.clone(), tag));
                    }
                    _ => {
                        let outcome = instance.db.insert(tuple.clone());
                        // A keyed upsert displaced an older tuple: its
                        // provenance dies with it.
                        if let Some(old) = outcome.replaced.as_ref() {
                            if let Some(store) = instance.prov.as_mut() {
                                store.forget(old);
                            }
                        }
                        if outcome.added {
                            stored = true;
                            if let Some(r) = wire_ref {
                                if let Some(store) = instance.prov.as_mut() {
                                    store.alias(tuple.clone(), r);
                                }
                            }
                            instance.pending.entry(relation).or_default().push(tuple.clone());

                            // Ship copies required by remote joins (the
                            // Figure 2 clouds).
                            for ship in program.ships_for(relation) {
                                let Some(dest) = tuple.node_at(ship.target_field) else {
                                    continue;
                                };
                                let cache_tuple =
                                    Tuple::from_rel(ship.cache_relation, tuple.fields().to_vec());
                                if dest == my_id {
                                    let copy_outcome = instance.db.insert(cache_tuple.clone());
                                    if let Some(store) = instance.prov.as_mut() {
                                        if let Some(old) = copy_outcome.replaced.as_ref() {
                                            store.forget(old);
                                        }
                                    }
                                    if copy_outcome.added {
                                        // The copy proves nothing new: it
                                        // aliases the source tuple's own
                                        // provenance.
                                        if let (Some(store), Some((n, p))) =
                                            (instance.prov.as_mut(), tag)
                                        {
                                            let r = if n == my_id {
                                                ProvRef::Local(p)
                                            } else {
                                                ProvRef::Remote(n, p)
                                            };
                                            store.alias(cache_tuple.clone(), r);
                                        }
                                        instance
                                            .pending
                                            .entry(ship.cache_relation)
                                            .or_default()
                                            .push(cache_tuple);
                                    }
                                } else {
                                    outbound.entry(dest).or_default().push((cache_tuple, tag));
                                }
                            }

                            // Multi-query sharing: completed best paths go
                            // into the shared cache.
                            if instance.spec.share_results
                                && program.result_relations.contains(&relation)
                            {
                                cache_entry =
                                    Self::cache_entry_from_result(instance.cache_rel, &tuple);
                            }
                        }
                    }
                }
            }
        }
        if pruned {
            self.stats.tuples_pruned += 1;
        }
        if collapsed {
            self.stats.tuples_pruned += 1;
            self.stats.tombstones_collapsed += 1;
        }
        if stored {
            self.stats.tuples_derived += 1;
        }
        if recorded {
            self.stats.prov_recorded += 1;
        }
        if let Some(cache) = cache_entry {
            self.shared.insert(cache);
        }
        stored
    }

    /// Aggregate-selection admission check. Keeps: updates of the current
    /// best (same identity key), and tuples at least as good as the best
    /// known for their prune key. The prune key extends the aggregate's
    /// group with every node-valued field outside the group and the first
    /// hop of any path-vector field, so one best route is retained *per next
    /// hop* (needed for recovery after failures, §8).
    ///
    /// Infinite-cost derivations are special-cased: an ∞ tombstone's only
    /// job is invalidating the stored/shipped best path and its cache
    /// entries (§8 rule NR3). Since every ∞ derivation ties in the
    /// aggregate, admitting them all would enumerate the whole failed path
    /// space; instead only the tombstones that actually invalidate
    /// something this node stored or shipped are admitted — one per
    /// (destination, next-hop) prune group plus one per stale stored tuple
    /// — and every other ∞ derivation collapses. Failure recovery becomes a
    /// single invalidation wave over the existing routing state instead of
    /// an exponential re-exploration.
    /// The prune-map coordinates of a tuple: its group key (aggregate group
    /// extended with every node-valued field outside the group and the
    /// first hop of any path-vector field — i.e. per next hop) and its
    /// identity (the catalog key fields, distinguishing updates of one
    /// route from competing routes).
    fn prune_key_and_identity(
        sel: &AggSelection,
        program: &LocalizedProgram,
        tuple: &Tuple,
    ) -> ((RelId, Vec<Value>), Vec<Value>) {
        let mut group: Vec<Value> =
            sel.group_fields.iter().filter_map(|&i| tuple.field(i).cloned()).collect();
        for (i, field) in tuple.fields().iter().enumerate() {
            if i == sel.value_field || sel.group_fields.contains(&i) {
                continue;
            }
            match field {
                Value::Node(_) => group.push(field.clone()),
                Value::Path(p) if p.len() >= 2 => group.push(Value::Node(p.nodes()[1])),
                _ => {}
            }
        }
        let key_fields = program.catalog.key_fields(tuple.rel(), tuple.arity());
        let identity: Vec<Value> =
            key_fields.iter().filter_map(|&i| tuple.field(i).cloned()).collect();
        ((tuple.rel(), group), identity)
    }

    fn prune_pass(
        instance: &mut Instance,
        sel: &AggSelection,
        program: &LocalizedProgram,
        tuple: &Tuple,
        my_id: NodeId,
    ) -> PruneDecision {
        let Some(value) = tuple.field(sel.value_field).cloned() else {
            return PruneDecision::Admit;
        };
        let (key, identity) = Self::prune_key_and_identity(sel, program, tuple);

        if value.is_infinite_cost() {
            // Tombstone sighted (whatever its fate below): the invalidation
            // wave is still active here — hold queued revivals back.
            instance.poison_seen = true;
            // Tombstone of the group's shipped/stored best: record the ∞ so
            // any finite alternative (other next hop) can take the slot,
            // and let the invalidation propagate.
            let invalidates_best = matches!(
                instance.prune.get(&key),
                Some((best_id, best_val)) if *best_id == identity && !best_val.is_infinite_cost()
            );
            if invalidates_best {
                // Finite → ∞ transition of the group's recorded best: the
                // entry becomes evictable once the wave has run.
                instance.prune_tombstones += 1;
                // The group's surviving alternatives (other downstream
                // continuations through this node) are stored state, not
                // deltas — schedule a revival so the next batch re-derives
                // and re-ships the group's new best from them.
                let loc = program.catalog.location_field(tuple.rel());
                let bindings: Vec<(usize, Value)> = sel
                    .group_fields
                    .iter()
                    .filter(|&&g| g != loc)
                    .filter_map(|&g| tuple.field(g).cloned().map(|v| (g, v)))
                    .collect();
                instance.revive.insert((tuple.rel(), sel.value_field, bindings));
                instance.prune.insert(key, (identity, value));
                return PruneDecision::Admit;
            }
            // Tombstone addressed to a remote home: this node only derives
            // and forwards it — whether it invalidates anything is a fact
            // about the *home's* store, which is invisible here. Collapsing
            // on the local group best loses real invalidations whenever two
            // equal-cost routes share a prune group at the deriving node
            // (the local best covers one of them; the other's home keeps a
            // route that is now dead). Ship it and let the home run the
            // real check — a tombstone nothing at the home matches
            // collapses there, so each one travels at most one hop.
            let loc = program.catalog.location_field(tuple.rel());
            if tuple.node_at(loc) != Some(my_id) {
                return PruneDecision::Admit;
            }
            // Tombstone of a dominated-but-stored tuple (an older route this
            // node still holds): admit so the keyed upsert poisons the stale
            // entry, but without touching the group best.
            let key_fields = program.catalog.key_fields(tuple.rel(), tuple.arity());
            let poisons_stored = instance
                .db
                .get_by_key(&tuple.key(&key_fields))
                .map(|stored| stored != tuple)
                .unwrap_or(false);
            if poisons_stored {
                return PruneDecision::Admit;
            }
            return PruneDecision::TombstoneCollapsed;
        }

        let better_or_equal = |a: &Value, b: &Value| -> bool {
            use std::cmp::Ordering::*;
            match sel.func {
                dr_datalog::ast::AggFunc::Min => a.compare_numeric(b) != Greater,
                dr_datalog::ast::AggFunc::Max => a.compare_numeric(b) != Less,
                _ => true,
            }
        };

        match instance.prune.get(&key) {
            None => {
                instance.prune.insert(key, (identity, value));
                PruneDecision::Admit
            }
            Some((best_id, best_val)) => {
                let admit = *best_id == identity // update (possibly worse) of the current best
                    || better_or_equal(&value, best_val);
                if admit {
                    // `value` is finite here (the ∞ path returned above): a
                    // revived group stops being a tombstone.
                    if best_val.is_infinite_cost() {
                        instance.prune_tombstones = instance.prune_tombstones.saturating_sub(1);
                    }
                    instance.prune.insert(key, (identity, value));
                    PruneDecision::Admit
                } else {
                    PruneDecision::Dominated
                }
            }
        }
    }

    /// Build a `<cache>(@N, D, P, C)` entry from a 4-ary result tuple.
    fn cache_entry_from_result(cache: RelId, tuple: &Tuple) -> Option<Tuple> {
        if tuple.arity() != 4 {
            return None;
        }
        let s = tuple.node_at(0)?;
        let d = tuple.node_at(1)?;
        let p = tuple.field(2)?.as_path()?.clone();
        let c = tuple.field(3)?.as_cost()?;
        Some(Tuple::from_rel(
            cache,
            vec![Value::Node(s), Value::Node(d), Value::Path(p), Value::Cost(c)],
        ))
    }

    /// Split a tagged batch into the wire's parallel item/tag vectors. The
    /// tag vector is emptied when every tag is `None`, so non-recording
    /// queries keep their exact legacy wire accounting.
    fn split_tagged(tagged: Vec<(Tuple, ProvTag)>) -> (Vec<Tuple>, Vec<ProvTag>) {
        let mut items = Vec::with_capacity(tagged.len());
        let mut provs = Vec::with_capacity(tagged.len());
        let mut any = false;
        for (tuple, tag) in tagged {
            any |= tag.is_some();
            items.push(tuple);
            provs.push(tag);
        }
        if !any {
            provs.clear();
        }
        (items, provs)
    }

    fn flush_outbound(&mut self, ctx: &mut Context<'_, NetMsg>, qid: QueryId, outbound: Outbound) {
        for (dest, tagged) in outbound {
            if tagged.is_empty() {
                continue;
            }
            if dest == self.node {
                // Tuples that resolved back to ourselves (e.g. relayed home
                // deliveries): fold them straight in.
                let mut again = BTreeMap::new();
                for (tuple, tag) in tagged {
                    let action = tag.map(|(n, p)| ProvAction::Wire(n, p));
                    self.route_tuple(qid, tuple, action, &mut again);
                }
                self.flush_outbound(ctx, qid, again);
                continue;
            }
            self.stats.tuples_sent += tagged.len() as u64;
            // Nodes only exchange messages with direct neighbors. Cache
            // shipping (the Figure 2 clouds) always targets a neighbor by
            // construction; home shipping of derived tuples usually does
            // too (right recursion ships one hop back toward the source).
            // When the home is further away — e.g. DSR-style left recursion
            // storing paths at the source — the tuple is relayed hop by hop
            // along the reverse of its own path vector, exactly the
            // "reverse path" shipping the paper describes for DSR and
            // Best-Path-Pairs.
            let next_hop = if self.neighbors.contains_key(&dest) {
                Some(dest)
            } else {
                let items: Vec<Tuple> = tagged.iter().map(|(t, _)| t.clone()).collect();
                Self::relay_hop(self.node, dest, &items, &self.neighbors)
            };
            match next_hop {
                Some(hop) => self.send_tuples(ctx, hop, qid, tagged),
                // No way to make progress toward the home node: drop. Not
                // sequenced — retransmitting into a black hole buys nothing.
                None => {
                    let (items, provs) = Self::split_tagged(tagged);
                    let msg = NetMsg::Tuples { qid, seq: None, items, provs };
                    let size = msg.wire_size();
                    ctx.send(dest, msg, size);
                }
            }
        }
    }

    /// Ship one batch of tuples to a direct-neighbor hop, framed by the hop
    /// transport, and arm the retransmit scan when the transport retains it.
    fn send_tuples(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        hop: NodeId,
        qid: QueryId,
        tagged: Vec<(Tuple, ProvTag)>,
    ) {
        let (items, provs) = Self::split_tagged(tagged);
        let msg = self.transport.frame(ctx.now(), hop, qid, items, provs);
        let size = msg.wire_size();
        ctx.send(hop, msg, size);
        if self.retx_timer.is_none() {
            self.retx_timer = self.transport.scan_delay().map(|delay| ctx.set_timer(delay));
        }
    }

    /// Send what the hop transport's retransmit scan asks for, and re-arm
    /// the scan while anything remains in flight.
    fn retransmit_scan(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let scan = self.transport.retransmit_scan(ctx.now());
        self.stats.retransmits += scan.resend.len() as u64;
        for (hop, msg) in scan.resend {
            let size = msg.wire_size();
            ctx.send(hop, msg, size);
        }
        if let Some(delay) = scan.next_scan {
            self.retx_timer = Some(ctx.set_timer(delay));
        }
    }

    /// Find a neighbor one step closer to `dest` along the path vector of
    /// any of the tuples being shipped.
    fn relay_hop(
        me: NodeId,
        dest: NodeId,
        items: &[Tuple],
        neighbors: &BTreeMap<NodeId, Cost>,
    ) -> Option<NodeId> {
        for tuple in items {
            for field in tuple.fields() {
                let Value::Path(path) = field else { continue };
                let nodes = path.nodes();
                let me_pos = nodes.iter().position(|&n| n == me);
                let dest_pos = nodes.iter().position(|&n| n == dest);
                if let (Some(a), Some(b)) = (me_pos, dest_pos) {
                    if a == b {
                        continue;
                    }
                    let step = if b > a { a + 1 } else { a - 1 };
                    let hop = nodes[step];
                    if neighbors.contains_key(&hop) {
                        return Some(hop);
                    }
                }
            }
        }
        None
    }

    /// Re-arm the joins of prune groups whose recorded best was poisoned
    /// to ∞ since the last round: re-inject, as deltas, this node's stored
    /// finite tuples matching each dead group's non-location columns.
    ///
    /// Without this, recovery is incomplete whenever every retained
    /// alternative at the route's home also dies: the home's per-next-hop
    /// fallbacks cover the failure only if their own downstream segments
    /// survived. The anchor node still stores finite paths for the group's
    /// destination, but they are old state — no delta ever re-fires the
    /// `link ⋈ path` join that would ship the group's new best (the
    /// nodes=10/seed=291 Dense-UUNET hub failure is a concrete case:
    /// without revival two pairs settle on detours ~25% worse than the
    /// surviving optimum).
    ///
    /// Only tuples that are the *current recorded best of their own prune
    /// group* are re-injected — at most one per surviving next hop. The
    /// store also holds every historically-admitted route (dominated
    /// alternatives are kept for exactly this kind of fallback), and during
    /// an invalidation wave most groups are ∞, so re-injecting the full
    /// per-destination history would re-explore the path space the
    /// tombstone-collapse design exists to avoid (the 16-node hub-failure
    /// budget test blows up ~200×). The group bests are sufficient: any
    /// repaired route the dead group can still ship extends some current
    /// best at this node. Re-injection is idempotent — re-derived tuples
    /// that are already stored are not re-shipped — and self-limiting:
    /// revived finite tuples never create new tombstone transitions.
    fn process_revivals(instance: &mut Instance, neighbors: &BTreeMap<NodeId, Cost>) {
        if instance.revive.is_empty() {
            return;
        }
        let program = Arc::clone(&instance.spec.program);
        let requests: Vec<ReviveRequest> = instance.revive.drain().collect();
        for (rel, value_field, bindings) in requests {
            let Some(sel) = program.agg_selections.iter().find(|s| s.input_relation == rel) else {
                continue;
            };
            let revived: Vec<Tuple> = instance
                .db
                .scan(rel)
                .filter(|t| {
                    t.field(value_field).map(|v| !v.is_infinite_cost()).unwrap_or(true)
                        && bindings.iter().all(|(i, v)| t.field(*i) == Some(v))
                })
                // A candidate whose next hop is a dead (or vanished)
                // neighbor is guaranteed dead on arrival: re-flooding it
                // just feeds the next invalidation wave, whose tombstones
                // queue further revivals of this destination's sibling
                // groups — a self-sustaining oscillation that melts the
                // 36-node dense-overlay churn figure. The link state needed
                // to rule those out is local and exact, so check it here;
                // when the neighbor later revives, `apply_link_update`'s
                // copy re-injection re-fires these joins anyway.
                .filter(|t| {
                    t.fields().iter().all(|f| match f {
                        Value::Path(p) if p.len() >= 2 => {
                            neighbors.get(&p.nodes()[1]).map(|c| c.is_finite()).unwrap_or(false)
                        }
                        _ => true,
                    })
                })
                .filter(|t| {
                    let (key, identity) = Self::prune_key_and_identity(sel, &program, t);
                    matches!(
                        instance.prune.get(&key),
                        Some((best_id, best_val))
                            if *best_id == identity && !best_val.is_infinite_cost()
                    )
                })
                .cloned()
                .collect();
            if !revived.is_empty() {
                instance.pending.entry(rel).or_default().extend(revived);
            }
        }
    }

    fn process_batches(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.stats.batches += 1;
        let qids: Vec<QueryId> = self.instances.keys().copied().collect();
        for qid in qids {
            let mut outbound: Outbound = BTreeMap::new();
            let mut cache_installs: Vec<(NodeId, NetMsg)> = Vec::new();
            // Local fixpoint: keep draining deltas until nothing new is
            // produced locally.
            // Revival is deferred to an *idle* batch: one that starts with no
            // pending deltas, meaning nothing arrived since the previous
            // batch and the invalidation wave has passed this node. Reviving
            // mid-wave would re-flood routes the in-flight poisons are about
            // to kill — and since most prune groups are ∞ during the wave,
            // every revived derivation would be admitted, stored, extended
            // and shipped, re-exploring the path space the tombstone
            // collapse exists to avoid. (`on_timer` keeps the batch timer
            // armed while revivals are queued, so an idle batch arrives.)
            //
            // Idleness alone is necessary but not sufficient: it only proves
            // the wave has passed *this node*, and on dense overlays waves
            // between farther nodes outlive any one node's idle gap. A round
            // additionally requires [`REVIVE_QUIET_BATCHES`] consecutive
            // tombstone-free idle batches — see the constant's doc for how
            // this also spaces repeat rounds.
            if let Some(instance) = self.instances.get_mut(&qid) {
                if instance.has_pending() || instance.poison_seen {
                    instance.poison_seen = false;
                    instance.revive_quiet = 0;
                } else {
                    instance.revive_quiet = instance.revive_quiet.saturating_add(1);
                    if instance.revive_quiet >= REVIVE_QUIET_BATCHES {
                        Self::process_revivals(instance, &self.neighbors);
                    }
                }
            }
            while let Some(instance) = self.instances.get_mut(&qid) {
                if !instance.has_pending() {
                    break;
                }
                if !instance.replanned && instance.db.total_tuples() >= REPLAN_MIN_ROWS {
                    for (rel, field) in instance.replan() {
                        self.shared.declare_index(rel, field);
                    }
                }
                let deltas = std::mem::take(&mut instance.pending);

                let mut derived: Vec<Tuple> = Vec::new();
                // Recomputed aggregate outputs are forced into the delta set
                // even when their value is unchanged: the inputs of their
                // group changed (e.g. a path was poisoned to ∞), so rules
                // consuming the aggregate must re-join against the updated
                // inputs or they would keep serving stale results (§8).
                let mut forced_deltas: Vec<Tuple> = Vec::new();
                // Firing log of this round, head tuple → (rule index, body
                // tuples), populated only when the query records provenance.
                // Aggregate winners keep the fields of the raw derivation
                // they won with, so the head-keyed lookup resolves them too.
                let recording = instance.prov.is_some();
                let mut firings: HashMap<Tuple, (u32, Vec<Tuple>)> = HashMap::new();
                {
                    let source = Overlay { local: &instance.db, shared: &self.shared };
                    let mut log = FiringLog::new();
                    let absorb =
                        |log: &mut FiringLog,
                         ri: usize,
                         firings: &mut HashMap<Tuple, (u32, Vec<Tuple>)>| {
                            for firing in log.firings.drain(..) {
                                firings.insert(firing.head, (ri as u32, firing.body));
                            }
                        };
                    for (ri, plan) in instance.compiled.iter().enumerate() {
                        let rule = plan.rule();
                        if rule.head.has_aggregate() {
                            // Aggregates are recomputed from the full local
                            // table whenever any of their inputs changed —
                            // including negated body atoms (a delta on a
                            // lower-stratum negated relation changes which
                            // rows feed the aggregate).
                            let touched = plan
                                .positive_rels()
                                .iter()
                                .chain(plan.neg_rels())
                                .any(|r| deltas.contains_key(r));
                            if !touched {
                                continue;
                            }
                            let raw = if recording {
                                plan.evaluate_traced(&self.builtins, &source, None, &mut log)
                            } else {
                                plan.evaluate(&self.builtins, &source, None)
                            };
                            if let Ok(raw) = raw {
                                if recording {
                                    absorb(&mut log, ri, &mut firings);
                                }
                                if let Ok(grouped) =
                                    apply_aggregate(&rule.head, plan.head_rel(), &raw)
                                {
                                    forced_deltas.extend(grouped.iter().cloned());
                                    derived.extend(grouped);
                                }
                            }
                            continue;
                        }
                        for (i, rel) in plan.positive_rels().iter().enumerate() {
                            let Some(delta) = deltas.get(rel) else { continue };
                            if delta.is_empty() {
                                continue;
                            }
                            let tuples = if recording {
                                plan.evaluate_traced(
                                    &self.builtins,
                                    &source,
                                    Some((i, delta)),
                                    &mut log,
                                )
                            } else {
                                plan.evaluate(&self.builtins, &source, Some((i, delta)))
                            };
                            if let Ok(tuples) = tuples {
                                if recording {
                                    absorb(&mut log, ri, &mut firings);
                                }
                                derived.extend(tuples);
                            }
                        }
                    }
                }

                for tuple in forced_deltas {
                    // Only force a re-join when the tuple is already the
                    // stored value (a genuinely new/changed value is routed
                    // below and becomes a delta anyway).
                    let Some(instance) = self.instances.get_mut(&qid) else { break };
                    if instance.db.contains(&tuple) {
                        instance.pending.entry(tuple.rel()).or_default().push(tuple);
                    }
                }
                for tuple in derived {
                    let action = firings
                        .get(&tuple)
                        .map(|(rule, body)| ProvAction::Fired(*rule, body.clone()));
                    let stored = self.route_tuple(qid, tuple.clone(), action, &mut outbound);
                    // Reverse-path cache installation for shared queries.
                    if stored {
                        if let Some((next, msg)) = self.reverse_path_install(qid, &tuple) {
                            cache_installs.push((next, msg));
                        }
                    }
                }
            }
            // The batch quiesced: retire prune-map state whose backing
            // tuples are gone, so churn cannot grow the map monotonically.
            if let Some(instance) = self.instances.get_mut(&qid) {
                self.stats.prune_evicted += instance.evict_stale_prune_groups();
            }
            self.flush_outbound(ctx, qid, outbound);
            for (next, msg) in cache_installs {
                let size = msg.wire_size();
                ctx.send(next, msg, size);
            }
        }
    }

    /// The first hop of a reverse-path cache installation for a freshly
    /// stored tuple, when `qid` shares results and the tuple is one of its
    /// results (§7.3).
    fn reverse_path_install(&self, qid: QueryId, tuple: &Tuple) -> Option<(NodeId, NetMsg)> {
        let instance = self.instances.get(&qid)?;
        if !instance.spec.share_results
            || !instance.spec.program.result_relations.contains(&tuple.rel())
        {
            return None;
        }
        self.cache_install_message(instance.cache_rel, tuple)
    }

    /// Build the first hop of a reverse-path cache installation for a
    /// freshly stored best-path result.
    fn cache_install_message(&self, cache: RelId, tuple: &Tuple) -> Option<(NodeId, NetMsg)> {
        if tuple.arity() != 4 || tuple.node_at(0) != Some(self.node) {
            return None;
        }
        let dest = tuple.node_at(1)?;
        let path = tuple.field(2)?.as_path()?;
        let cost = tuple.field(3)?.as_cost()?;
        if path.len() < 3 || cost.is_infinite() {
            // One-hop paths have no intermediate nodes to cache at.
            return None;
        }
        let next = path.nodes()[1];
        let link_cost = self.neighbors.get(&next).copied().unwrap_or(Cost::ZERO);
        let remaining = Cost::new((cost.value() - link_cost.value()).max(0.0));
        Some((
            next,
            NetMsg::CacheInstall {
                cache,
                dest,
                suffix: path.nodes()[1..].to_vec(),
                cost: remaining,
            },
        ))
    }

    fn handle_cache_install(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        cache: RelId,
        dest: NodeId,
        suffix: Vec<NodeId>,
        cost: Cost,
    ) {
        if suffix.first() != Some(&self.node) || suffix.len() < 2 {
            return;
        }
        let path = dr_types::PathVector::from_nodes(suffix.clone());
        self.shared.insert(Tuple::from_rel(
            cache,
            vec![Value::Node(self.node), Value::Node(dest), Value::Path(path), Value::Cost(cost)],
        ));
        if suffix.len() > 2 {
            let next = suffix[1];
            let link_cost = self.neighbors.get(&next).copied().unwrap_or(Cost::ZERO);
            let remaining = Cost::new((cost.value() - link_cost.value()).max(0.0));
            let msg =
                NetMsg::CacheInstall { cache, dest, suffix: suffix[1..].to_vec(), cost: remaining };
            let size = msg.wire_size();
            ctx.send(next, msg, size);
        }
    }

    /// True when a received tuple's relation tag is one this query's symbol
    /// catalog binds (or the deployment-wide neighbor-table relation): the
    /// decode step of the wire format.
    fn tuple_decodes(&self, qid: QueryId, tuple: &Tuple) -> bool {
        let rel = tuple.rel();
        if rel == self.link_rel {
            return true;
        }
        match self.instances.get(&qid) {
            Some(instance) => {
                instance.spec.program.rel_catalog.contains(rel) || rel == instance.cache_rel
            }
            None => false,
        }
    }

    /// Apply a neighbor-table change to every installed query (a keyed
    /// upsert of the corresponding `link` tuple, which the next batch folds
    /// into the dataflow — §8's incremental recomputation).
    fn apply_link_update(&mut self, ctx: &mut Context<'_, NetMsg>, neighbor: NodeId, cost: Cost) {
        let prev = self.neighbors.insert(neighbor, cost);
        let revived = cost.is_finite() && prev.is_none_or(|c| c.is_infinite());
        let qids: Vec<QueryId> = self.instances.keys().copied().collect();
        for qid in qids {
            let link = self.link_tuple(neighbor, cost);
            let mut outbound = BTreeMap::new();
            self.route_tuple(qid, link, None, &mut outbound);
            if revived {
                self.reinject_neighbor_copies(qid, neighbor);
            }
            self.flush_outbound(ctx, qid, outbound);
        }
        if !self.instances.is_empty() {
            self.schedule_batch(ctx);
        }
    }

    /// Re-fire the remote joins across a revived adjacency: re-inject, as
    /// deltas, every finite shipped-copy tuple stored here whose owner is
    /// `neighbor`.
    ///
    /// While the adjacency was dead, the owner's ∞ copy-refresh (shipped
    /// when it poisoned its side of the link) never arrived — there was no
    /// link to carry it. After the link comes back the owner re-ships its
    /// finite copy, but that re-ship is byte-identical to what this node
    /// still stores, so the keyed insert reports nothing new and the rules
    /// joining against the copy never re-run. The visible symptom is a
    /// partition that never fully heals: both sides recompute routes to the
    /// cut endpoints themselves (those flow from genuine `link` deltas) but
    /// the stored-path sets never re-flood across the cut. Re-injecting the
    /// surviving copies as deltas re-runs those joins against the full
    /// stored state, which is exactly the re-flood the heal needs. Copies
    /// holding an ∞ field are skipped: they were deltas when they arrived,
    /// their joins already ran, and replaying a poison could tombstone a
    /// route that is currently valid.
    fn reinject_neighbor_copies(&mut self, qid: QueryId, neighbor: NodeId) {
        let Some(instance) = self.instances.get_mut(&qid) else { return };
        let program = Arc::clone(&instance.spec.program);
        for ship in &program.ships {
            let loc = program.catalog.location_field(ship.source_relation);
            let copies: Vec<Tuple> = instance
                .db
                .scan(ship.cache_relation)
                .filter(|t| {
                    t.node_at(loc) == Some(neighbor)
                        && t.fields().iter().all(|v| !v.is_infinite_cost())
                })
                .cloned()
                .collect();
            if !copies.is_empty() {
                instance.pending.entry(ship.cache_relation).or_default().extend(copies);
            }
        }
    }

    /// Reorder one delivered batch so the aggregate-selection admission
    /// gate sees, per selected relation, ∞ tombstones first and finite
    /// tuples best-value first.
    ///
    /// Network reordering (loss, retransmission, duplication) otherwise
    /// defeats the prune: finite routes arriving worst-first are each
    /// better than the last, so every one of them is admitted, stored,
    /// shipped, and re-joined downstream — the lossy churn benchmark
    /// derives ~90× more tuples than its lossless twin mostly from this.
    /// Sorting is per relation and stable; tuples of non-selected relations
    /// (and the relative order of different relations) are untouched, so a
    /// batch with no aggregate selections is processed exactly as it
    /// arrived. Any processing order is semantically valid — delivery order
    /// was never guaranteed — this one just minimizes admissions.
    fn sort_batch_for_admission(&self, qid: QueryId, batch: &mut [(Tuple, ProvTag)]) {
        let Some(instance) = self.instances.get(&qid) else { return };
        if !instance.spec.aggregate_selections {
            return;
        }
        let program = &instance.spec.program;
        for sel in &program.agg_selections {
            let idx: Vec<usize> = batch
                .iter()
                .enumerate()
                .filter(|(_, (t, _))| t.rel() == sel.input_relation)
                .map(|(i, _)| i)
                .collect();
            if idx.len() < 2 {
                continue;
            }
            let mut members: Vec<(Tuple, ProvTag)> =
                idx.iter().map(|&i| batch[i].clone()).collect();
            let rank = |t: &Tuple| -> (u8, Option<Value>) {
                match t.field(sel.value_field) {
                    // Tombstones first: they only invalidate, and admitting
                    // them before the finite alternatives avoids comparing
                    // fresh routes against a best that is about to die.
                    Some(v) if v.is_infinite_cost() => (0, None),
                    Some(v) => (1, Some(v.clone())),
                    None => (1, None),
                }
            };
            members.sort_by(|(a, _), (b, _)| {
                let (ra, va) = rank(a);
                let (rb, vb) = rank(b);
                ra.cmp(&rb).then_with(|| match (va, vb) {
                    (Some(x), Some(y)) => {
                        let ord = x.compare_numeric(&y);
                        match sel.func {
                            dr_datalog::ast::AggFunc::Max => ord.reverse(),
                            _ => ord,
                        }
                    }
                    _ => std::cmp::Ordering::Equal,
                })
            });
            for (&i, m) in idx.iter().zip(members) {
                batch[i] = m;
            }
        }
    }

    /// Apply one arrived batch of tuples for `qid` (already past teardown
    /// and duplicate checks): piggy-backed installation, catalog decode,
    /// cost-ordering for the admission gate, routing, reverse-path cache
    /// installation, batch scheduling.
    fn deliver_tuples(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        from: NodeId,
        qid: QueryId,
        items: Vec<Tuple>,
        provs: Vec<ProvTag>,
    ) {
        // Piggy-backed installation: tuples for an unknown query install it
        // on the fly (§3.5).
        if !self.instances.get(&qid).map(|i| i.installed).unwrap_or(false) {
            self.install(ctx, qid);
            // Still not installed: the spec never reached this node's
            // library (it was partitioned away during the Install flood).
            // Ask the sender to re-offer the query — the receive-side
            // counterpart of the lazy teardown repair. Self-limiting: one
            // request per batch that finds the query unknown.
            if !self.instances.get(&qid).map(|i| i.installed).unwrap_or(false)
                && !self.torn_down.contains(&qid)
            {
                let req = NetMsg::QueryRequest { qid };
                let size = req.wire_size();
                ctx.send(from, req, size);
            }
        }
        self.stats.tuples_received += items.len() as u64;
        let tags: Vec<ProvTag> =
            if provs.len() == items.len() { provs } else { vec![None; items.len()] };
        let mut batch: Vec<(Tuple, ProvTag)> = items.into_iter().zip(tags).collect();
        self.sort_batch_for_admission(qid, &mut batch);
        let mut outbound = BTreeMap::new();
        let mut cache_installs = Vec::new();
        for (tuple, tag) in batch {
            // Decode the shipped relation tag against the query's symbol
            // catalog: a tuple whose id the catalog does not bind (a stale
            // id from an older query version, or garbage) is dropped instead
            // of silently creating a phantom table.
            if !self.tuple_decodes(qid, &tuple) {
                self.stats.tuples_rejected += 1;
                continue;
            }
            let action = tag.map(|(n, p)| ProvAction::Wire(n, p));
            let stored = self.route_tuple(qid, tuple.clone(), action, &mut outbound);
            // Results of shared queries usually arrive here (shipped home
            // from the node that derived them); kick off the reverse-path
            // cache installation of §7.3.
            if stored {
                if let Some(install) = self.reverse_path_install(qid, &tuple) {
                    cache_installs.push(install);
                }
            }
        }
        self.flush_outbound(ctx, qid, outbound);
        for (next, msg) in cache_installs {
            let size = msg.wire_size();
            ctx.send(next, msg, size);
        }
        self.schedule_batch(ctx);
    }

    /// A peer saw tuples for a query it does not know: re-offer the
    /// installation if we hold the spec (re-registering it with the shared
    /// library first — the request models the spec traveling with the
    /// reply), or propagate the teardown if the query is dead.
    fn handle_query_request(&mut self, ctx: &mut Context<'_, NetMsg>, from: NodeId, qid: QueryId) {
        if self.torn_down.contains(&qid) {
            let reply = NetMsg::Teardown { qid };
            let size = reply.wire_size();
            ctx.send(from, reply, size);
            return;
        }
        let Some(instance) = self.instances.get(&qid) else { return };
        if !instance.installed {
            return;
        }
        // Re-register the spec with the shared library from our own
        // instance before replying, so the peer's `install` finds it even if
        // the library entry is gone (in a real deployment the spec would
        // travel inside the reply; the library is the wire here).
        self.config.library.restore(Arc::clone(&instance.spec));
        let reply = NetMsg::Install { qid };
        let size = instance.spec.program.dissemination_size();
        ctx.send(from, reply, size);
    }

    /// Serve a provenance-record fetch: look the id up in `qid`'s arena and
    /// reply to the requester. A pruned record (or a torn-down / unknown
    /// query) yields a `None` reply, which the explaining side renders as
    /// an unresolved pointer rather than an error.
    fn handle_prov_fetch(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        qid: QueryId,
        id: ProvId,
        requester: NodeId,
    ) {
        self.stats.prov_fetches += 1;
        let record = self
            .instances
            .get(&qid)
            .and_then(|i| i.prov.as_ref())
            .and_then(|store| store.get(id))
            .cloned();
        let reply = NetMsg::ProvReply { qid, node: self.node, id, record: record.map(Box::new) };
        let size = reply.wire_size();
        ctx.send(requester, reply, size);
    }
}

impl NodeApp for QueryProcessor {
    type Message = NetMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.node = ctx.id();
        self.neighbors =
            ctx.neighbors().into_iter().map(|(nb, params)| (nb, params.cost)).collect();
    }

    fn on_join(&mut self, ctx: &mut Context<'_, NetMsg>) {
        // Warm restart: refresh the neighbor table and replay it into every
        // installed query so routes through this node are recomputed.
        self.node = ctx.id();
        let fresh: Vec<(NodeId, Cost)> =
            ctx.neighbors().into_iter().map(|(nb, params)| (nb, params.cost)).collect();
        for (nb, cost) in fresh {
            self.apply_link_update(ctx, nb, cost);
            // The restart kept the old neighbor table, so the upsert above
            // sees no ∞→finite transition — force the copy re-injection
            // that a detected revival would have done. The node's own
            // stored state survived the outage unchanged (no deltas), yet
            // every route *through* it was tombstoned at its peers; without
            // re-running the copy joins those routes are never re-derived.
            if cost.is_finite() {
                let qids: Vec<QueryId> = self.instances.keys().copied().collect();
                for qid in qids {
                    self.reinject_neighbor_copies(qid, nb);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Install { qid } => {
                // Lazy teardown repair: a peer that missed the teardown
                // flood (it was down at the time) and still advertises the
                // dead query learns of the teardown the moment it talks to
                // anyone who saw it.
                if self.torn_down.contains(&qid) {
                    let reply = NetMsg::Teardown { qid };
                    let size = reply.wire_size();
                    ctx.send(from, reply, size);
                    return;
                }
                self.install(ctx, qid);
            }
            NetMsg::Tuples { qid, seq, items, provs } => {
                if self.torn_down.contains(&qid) {
                    let reply = NetMsg::Teardown { qid };
                    let size = reply.wire_size();
                    ctx.send(from, reply, size);
                    return;
                }
                let received = self.transport.receive(from, qid, seq, items, provs);
                self.stats.dups_dropped += u64::from(received.duplicate);
                self.stats.gaps_skipped += received.gaps_skipped;
                for (items, provs) in received.ready {
                    self.deliver_tuples(ctx, from, qid, items, provs);
                }
                if let Some(ack) = received.ack {
                    let size = ack.wire_size();
                    ctx.send(from, ack, size);
                    self.stats.acks_sent += 1;
                }
            }
            NetMsg::Ack { qid, cumulative } => self.transport.on_ack(from, qid, cumulative),
            NetMsg::QueryRequest { qid } => {
                self.handle_query_request(ctx, from, qid);
            }
            NetMsg::ProvFetch { qid, id, requester } => {
                self.handle_prov_fetch(ctx, qid, id, requester);
            }
            NetMsg::ProvReply { qid, node, id, record } => {
                if let Some(instance) = self.instances.get_mut(&qid) {
                    if let (Some(store), Some(rec)) = (instance.prov.as_mut(), record) {
                        store.remember_fetched(node, id, *rec);
                    }
                }
            }
            NetMsg::Teardown { qid } => {
                self.teardown(ctx, qid);
            }
            NetMsg::CacheInstall { cache, dest, suffix, cost } => {
                self.handle_cache_install(ctx, cache, dest, suffix, cost);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, timer: u64) {
        if Some(timer) == self.batch_timer {
            self.batch_timer = None;
            self.process_batches(ctx);
            // If processing produced new pending work (e.g. tuples delivered
            // to ourselves), schedule another round. Queued revivals also
            // keep the timer armed: they only run in a batch that starts
            // idle, so they need a next batch to run in.
            if self.instances.values().any(|i| i.has_pending() || !i.revive.is_empty()) {
                self.schedule_batch(ctx);
            }
        } else if Some(timer) == self.retx_timer {
            self.retx_timer = None;
            self.retransmit_scan(ctx);
        }
        // Any other id is a stale timer from before a fail/rejoin: ignore.
    }

    fn on_link_event(&mut self, ctx: &mut Context<'_, NetMsg>, event: LinkEvent) {
        match event {
            LinkEvent::MetricChanged { neighbor, params } => {
                self.apply_link_update(ctx, neighbor, params.cost);
            }
            LinkEvent::NeighborDown { neighbor } => {
                self.apply_link_update(ctx, neighbor, Cost::INFINITY);
            }
            LinkEvent::NeighborUp { neighbor, params } => {
                self.apply_link_update(ctx, neighbor, params.cost);
            }
        }
    }
}
