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
//!   routes survive for failure recovery (§8) — behind the `AdmissionGate`
//!   of `crate::admission`, one per installed query,
//! * link failures and metric changes arrive as neighbor-table updates and
//!   are folded into the same incremental dataflow (cost-∞ poisoning),
//! * completed best paths can be written into the node-local, cross-query
//!   `bestPathCache` table and installed along the reverse path, enabling
//!   the multi-query sharing of §7.3 (decided in one place,
//!   `QueryProcessor::route_tuple`).
//!
//! Batches travel between neighbors over the [`HopTransport`] (sequenced,
//! acknowledged and retransmitted when the deployment turns reliability on).

use crate::admission::{Admission, AdmissionGate};
use crate::localize::LocalizedProgram;
use crate::query::{QueryId, QueryLibrary, QuerySpec};
use crate::transport::HopTransport;
pub use crate::transport::{ReliabilityConfig, StreamSeq};
use dr_datalog::builtins::Builtins;
use dr_datalog::database::{Database, Scan};
use dr_datalog::eval::{apply_aggregate, FiringLog, RelationSource, RuleEval};
use dr_netsim::{Context, LinkEvent, NodeApp, SimDuration};
use dr_provenance::{ProvId, ProvRecord, ProvRef, ProvStore};
use dr_types::{Cost, NodeId, PathVector, RelId, Tuple, TupleKey, Value};
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
    /// The aggregate-selection admission gate and its prune state.
    gate: AdmissionGate,
    /// Interned id of the spec's cross-query cache relation.
    cache_rel: RelId,
    /// Derivation-provenance arena, allocated only when the spec asks for
    /// recording ([`crate::QueryOptions::record_provenance`]). `None`
    /// means the query runs the exact pre-provenance hot path: no store, no
    /// per-firing bookkeeping, empty wire tags. Owned by the instance so
    /// teardown drops every record with the rest of the query's state.
    prov: Option<ProvStore>,
}

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
        let cache_rel = RelId::intern(&spec.options.cache_relation);
        let prov = spec.options.record_provenance.then(ProvStore::new);
        let gate = AdmissionGate::new(Arc::clone(&spec.program), spec.options.aggregate_selections);
        Instance {
            spec,
            db,
            compiled,
            replanned: false,
            pending: HashMap::new(),
            gate,
            cache_rel,
            prov,
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

/// What routing queued for the wire, sent by
/// [`QueryProcessor::flush_outbound`] in this order.
#[derive(Default)]
struct Outbound {
    /// Tuples per destination, each with the provenance tag the receiver
    /// should alias it to (`None` for base facts or non-recording queries).
    tuples: BTreeMap<NodeId, Vec<(Tuple, ProvTag)>>,
    /// First hops of reverse-path cache installations (§7.3).
    cache_installs: Vec<(NodeId, NetMsg)>,
}

/// Where a tuple entering [`QueryProcessor::route_tuple`] came from.
enum Origin {
    /// A base fact or neighbor-table tuple seeded at this node. Unlike the
    /// other two, it never starts a reverse-path cache installation.
    Base,
    /// Derived by a local rule firing. When the query records provenance it
    /// carries the rule's index in the localized program and the body
    /// tuples the firing joined, in planned join order, to record.
    Fired(Option<(u32, Vec<Tuple>)>),
    /// Arrived over the wire, with the pointer to its deriving node's
    /// record to alias when the query records provenance.
    Wire(ProvTag),
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
        self.instances.get(&qid).map_or(0, |i| i.gate.entries())
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
            f.prune_entries += instance.gate.entries();
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
        if self.instances.contains_key(&qid) {
            return;
        }
        let Some(spec) = self.config.library.get(qid) else { return };
        if spec.options.share_results {
            self.shared.declare_key(spec.options.cache_relation.as_str(), vec![0, 1]);
        }
        let program = Arc::clone(&spec.program);
        let instance =
            self.instances.entry(qid).or_insert_with(|| Instance::new(Arc::clone(&spec)));
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

        self.flood(ctx, NetMsg::Install { qid }, program.dissemination_size());

        // Install the query's facts: replicated relations everywhere, others
        // only at their home node.
        let mut outbound = Outbound::default();
        for fact in spec.options.facts.iter().cloned() {
            self.route_tuple(qid, fact, Origin::Base, &mut outbound);
        }
        // Materialize the program's own ground facts (constant rules such as
        // the `magicSources` / `magicDsts` of a pair query). Since every node
        // runs this on installation, replicated (and un-located) facts are
        // installed locally everywhere, and located facts only at their home
        // node — no shipping required.
        for fact in self.materialize_program_facts(&program) {
            self.route_tuple(qid, fact, Origin::Base, &mut outbound);
        }
        // Seed the neighbor table as `link` base tuples.
        let links: Vec<Tuple> =
            self.neighbors.iter().map(|(nb, cost)| self.link_tuple(*nb, *cost)).collect();
        for link in links {
            self.route_tuple(qid, link, Origin::Base, &mut outbound);
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
        self.flood(ctx, msg, size);
    }

    /// Send `msg`, charged `size` bytes, to every neighbor.
    fn flood(&self, ctx: &mut Context<'_, NetMsg>, msg: NetMsg, size: usize) {
        for &nb in self.neighbors.keys() {
            ctx.send(nb, msg.clone(), size);
        }
    }

    /// When `qid` was torn down here, reply `Teardown` to `peer` and return
    /// true — lazy teardown repair: a peer that missed the teardown flood
    /// (it was down at the time) and still talks about the dead query
    /// learns of the teardown the moment it talks to anyone who saw it.
    fn refuse_torn_down(&self, ctx: &mut Context<'_, NetMsg>, peer: NodeId, qid: QueryId) -> bool {
        if !self.torn_down.contains(&qid) {
            return false;
        }
        send(ctx, peer, NetMsg::Teardown { qid });
        true
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

    /// Store or forward one tuple for query `qid`.
    ///
    /// `origin` says where the tuple came from. For provenance, a firing
    /// is recorded and a wire tag aliased, unless the query does not record
    /// provenance. Only *admitted* tuples are bound: dominated and
    /// collapsed derivations leave no provenance residue, and a keyed
    /// upsert forgets the displaced tuple's record, so the store tracks
    /// exactly the live routing state.
    ///
    /// This is also the one place that decides multi-query sharing (§7.3):
    /// a newly stored result of a sharing query goes into the shared cache,
    /// and when it is a finite best path from this node, derived here or
    /// received, the first hop of its reverse-path installation is queued
    /// on `outbound`.
    fn route_tuple(&mut self, qid: QueryId, tuple: Tuple, origin: Origin, outbound: &mut Outbound) {
        let my_id = self.node;
        let Some(instance) = self.instances.get_mut(&qid) else { return };
        match instance.gate.admit(&instance.db, &tuple, my_id) {
            Admission::Admit => {}
            Admission::Dominated => {
                self.stats.tuples_pruned += 1;
                return;
            }
            Admission::TombstoneCollapsed => {
                self.stats.tuples_pruned += 1;
                self.stats.tombstones_collapsed += 1;
                return;
            }
        }
        let program = Arc::clone(&instance.spec.program);
        let relation = tuple.rel();
        let dataflow = !matches!(origin, Origin::Base);

        // Bind the admitted tuple's provenance. A firing is recorded at the
        // deriving node even when the tuple's home is remote: the shipped
        // copy links back here, and `ProvFetch` resolves the pointer on
        // demand.
        let mut tag: ProvTag = None;
        // A wire tag is only aliased into the store if the tuple is
        // actually stored below — a tuple merely relayed onward must not
        // leave a binding at the relay.
        let mut wire_ref: Option<ProvRef> = None;
        if let Some(store) = instance.prov.as_mut() {
            match origin {
                Origin::Fired(Some((rule, body))) => {
                    let body_refs: Vec<(Tuple, ProvRef)> = body
                        .into_iter()
                        .map(|b| {
                            let r = store.resolve(&b);
                            (b, r)
                        })
                        .collect();
                    let batch = self.stats.batches;
                    let pid = store.record(tuple.clone(), rule, my_id, batch, body_refs);
                    self.stats.prov_recorded += 1;
                    tag = Some((my_id, pid));
                }
                Origin::Wire(Some((origin, pid))) => {
                    wire_ref = Some(prov_ref(my_id, origin, pid));
                    tag = Some((origin, pid));
                }
                _ => {}
            }
        }

        let home = tuple.node_at(program.catalog.location_field(relation));
        if let Some(h) = home.filter(|&h| h != my_id && !program.is_replicated(relation)) {
            outbound.tuples.entry(h).or_default().push((tuple, tag));
            return;
        }
        let outcome = instance.db.insert(tuple.clone());
        // A keyed upsert displaced an older tuple: its provenance dies with
        // it.
        if let (Some(old), Some(store)) = (outcome.replaced.as_ref(), instance.prov.as_mut()) {
            store.forget(old);
        }
        if !outcome.added {
            return;
        }
        self.stats.tuples_derived += 1;
        if let (Some(r), Some(store)) = (wire_ref, instance.prov.as_mut()) {
            store.alias(tuple.clone(), r);
        }
        instance.pending.entry(relation).or_default().push(tuple.clone());

        // Ship copies required by remote joins (the Figure 2 clouds).
        for ship in program.ships_for(relation) {
            let Some(dest) = tuple.node_at(ship.target_field) else { continue };
            let cache_tuple = Tuple::from_rel(ship.cache_relation, tuple.fields().to_vec());
            if dest != my_id {
                outbound.tuples.entry(dest).or_default().push((cache_tuple, tag));
                continue;
            }
            let copy_outcome = instance.db.insert(cache_tuple.clone());
            if let (Some(old), Some(store)) =
                (copy_outcome.replaced.as_ref(), instance.prov.as_mut())
            {
                store.forget(old);
            }
            if copy_outcome.added {
                // The copy proves nothing new: it aliases the source tuple's
                // own provenance.
                if let (Some(store), Some((n, p))) = (instance.prov.as_mut(), tag) {
                    store.alias(cache_tuple.clone(), prov_ref(my_id, n, p));
                }
                instance.pending.entry(ship.cache_relation).or_default().push(cache_tuple);
            }
        }

        // Multi-query sharing: completed best paths go into the shared
        // cache and, from their source, along the reverse path.
        if instance.spec.options.share_results && program.result_relations.contains(&relation) {
            if let Some((s, dest, path, cost)) = best_path_fields(&tuple) {
                let cache = instance.cache_rel;
                if dataflow && s == my_id && cost.is_finite() {
                    let hop = cache_install_hop(&self.neighbors, cache, dest, path.nodes(), cost);
                    outbound.cache_installs.extend(hop);
                }
                self.shared.insert(Tuple::from_rel(cache, tuple.fields().to_vec()));
            }
        }
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
        for (dest, tagged) in outbound.tuples {
            if tagged.is_empty() {
                continue;
            }
            // `route_tuple` only queues tuples for other nodes.
            debug_assert_ne!(dest, self.node);
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
                Self::relay_hop(self.node, dest, tagged.iter().map(|(t, _)| t), &self.neighbors)
            };
            match next_hop {
                Some(hop) => self.send_tuples(ctx, hop, qid, tagged),
                // No way to make progress toward the home node: drop. Not
                // sequenced — retransmitting into a black hole buys nothing.
                None => {
                    let (items, provs) = Self::split_tagged(tagged);
                    send(ctx, dest, NetMsg::Tuples { qid, seq: None, items, provs });
                }
            }
        }
        for (next, msg) in outbound.cache_installs {
            send(ctx, next, msg);
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
        send(ctx, hop, msg);
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
            send(ctx, hop, msg);
        }
        if let Some(delay) = scan.next_scan {
            self.retx_timer = Some(ctx.set_timer(delay));
        }
    }

    /// Find a neighbor one step closer to `dest` along the path vector of
    /// any of the tuples being shipped.
    fn relay_hop<'a>(
        me: NodeId,
        dest: NodeId,
        items: impl IntoIterator<Item = &'a Tuple>,
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

    fn process_batches(&mut self, ctx: &mut Context<'_, NetMsg>) {
        self.stats.batches += 1;
        let qids: Vec<QueryId> = self.instances.keys().copied().collect();
        for qid in qids {
            let mut outbound = Outbound::default();
            // Revivals the gate finds due start this round as deltas
            // (`on_timer` keeps the batch timer armed while any are queued).
            if let Some(instance) = self.instances.get_mut(&qid) {
                let idle = !instance.has_pending();
                for (rel, revived) in instance.gate.start_batch(idle, &instance.db, &self.neighbors)
                {
                    instance.pending.entry(rel).or_default().extend(revived);
                }
            }
            // Local fixpoint: keep draining deltas until nothing new is
            // produced locally.
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
                    // Evaluate rule `ri`, logging its firings when recording.
                    let mut run = |ri: usize, plan: &RuleEval, delta: Option<(usize, &[Tuple])>| {
                        let out = if recording {
                            plan.evaluate_traced(&self.builtins, &source, delta, &mut log)
                        } else {
                            plan.evaluate(&self.builtins, &source, delta)
                        };
                        let out = out.ok()?;
                        for firing in log.firings.drain(..) {
                            firings.insert(firing.head, (ri as u32, firing.body));
                        }
                        Some(out)
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
                            if let Some(raw) = run(ri, plan, None) {
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
                            if let Some(tuples) = run(ri, plan, Some((i, delta))) {
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
                    let fired = firings.get(&tuple).cloned();
                    self.route_tuple(qid, tuple, Origin::Fired(fired), &mut outbound);
                }
            }
            // The batch quiesced: retire the prune state of dead groups, so
            // churn cannot grow the map monotonically.
            if let Some(instance) = self.instances.get_mut(&qid) {
                self.stats.prune_evicted += instance.gate.evict();
            }
            self.flush_outbound(ctx, qid, outbound);
        }
    }

    /// Store a reverse-path cache installation addressed to this node and
    /// forward it one hop further along its suffix.
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
        if let Some((next, msg)) = cache_install_hop(&self.neighbors, cache, dest, &suffix, cost) {
            send(ctx, next, msg);
        }
        let path = Value::Path(PathVector::from_nodes(suffix));
        self.shared.insert(Tuple::from_rel(
            cache,
            vec![Value::Node(self.node), Value::Node(dest), path, Value::Cost(cost)],
        ));
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
            let mut outbound = Outbound::default();
            self.route_tuple(qid, link, Origin::Base, &mut outbound);
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
        if !self.instances.contains_key(&qid) {
            self.install(ctx, qid);
            // Still not installed: the spec never reached this node's
            // library (it was partitioned away during the Install flood).
            // Ask the sender to re-offer the query — the receive-side
            // counterpart of the lazy teardown repair. Self-limiting: one
            // request per batch that finds the query unknown.
            if !self.instances.contains_key(&qid) && !self.torn_down.contains(&qid) {
                send(ctx, from, NetMsg::QueryRequest { qid });
            }
        }
        self.stats.tuples_received += items.len() as u64;
        let tags: Vec<ProvTag> =
            if provs.len() == items.len() { provs } else { vec![None; items.len()] };
        let mut batch: Vec<(Tuple, ProvTag)> = items.into_iter().zip(tags).collect();
        if let Some(instance) = self.instances.get(&qid) {
            instance.gate.order_batch(&mut batch);
        }
        let mut outbound = Outbound::default();
        for (tuple, tag) in batch {
            // Decode the shipped relation tag against the query's symbol
            // catalog: a tuple whose id the catalog does not bind (a stale
            // id from an older query version, or garbage) is dropped instead
            // of silently creating a phantom table.
            if !self.tuple_decodes(qid, &tuple) {
                self.stats.tuples_rejected += 1;
                continue;
            }
            self.route_tuple(qid, tuple, Origin::Wire(tag), &mut outbound);
        }
        self.flush_outbound(ctx, qid, outbound);
        self.schedule_batch(ctx);
    }

    /// A peer saw tuples for a query it does not know: re-offer the
    /// installation if we hold the spec (re-registering it with the shared
    /// library first — the request models the spec traveling with the
    /// reply), or propagate the teardown if the query is dead.
    fn handle_query_request(&mut self, ctx: &mut Context<'_, NetMsg>, from: NodeId, qid: QueryId) {
        if self.refuse_torn_down(ctx, from, qid) {
            return;
        }
        let Some(instance) = self.instances.get(&qid) else { return };
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
        send(ctx, requester, reply);
    }
}

/// Send `msg` to `to`, charged its [`NetMsg::wire_size`].
fn send(ctx: &mut Context<'_, NetMsg>, to: NodeId, msg: NetMsg) {
    let size = msg.wire_size();
    ctx.send(to, msg, size);
}

/// A pointer, as seen from node `me`, to record `pid` of `owner`'s arena.
fn prov_ref(me: NodeId, owner: NodeId, pid: ProvId) -> ProvRef {
    if owner == me {
        ProvRef::Local(pid)
    } else {
        ProvRef::Remote(owner, pid)
    }
}

/// The `(S, D, P, C)` fields of a 4-ary best-path tuple.
fn best_path_fields(tuple: &Tuple) -> Option<(NodeId, NodeId, &PathVector, Cost)> {
    if tuple.arity() != 4 {
        return None;
    }
    let path = tuple.field(2)?.as_path()?;
    Some((tuple.node_at(0)?, tuple.node_at(1)?, path, tuple.field(3)?.as_cost()?))
}

/// The next hop of a reverse-path cache installation (§7.3) at the node
/// heading `path`, a best path to `dest` of cost `cost`: the message for
/// `path[1]`, carrying the rest of the path and its cost. `None` when no
/// node before `dest` is left to cache at.
fn cache_install_hop(
    neighbors: &BTreeMap<NodeId, Cost>,
    cache: RelId,
    dest: NodeId,
    path: &[NodeId],
    cost: Cost,
) -> Option<(NodeId, NetMsg)> {
    if path.len() < 3 {
        return None;
    }
    let next = path[1];
    let link_cost = neighbors.get(&next).copied().unwrap_or(Cost::ZERO);
    let remaining = Cost::new((cost.value() - link_cost.value()).max(0.0));
    Some((next, NetMsg::CacheInstall { cache, dest, suffix: path[1..].to_vec(), cost: remaining }))
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
                if !self.refuse_torn_down(ctx, from, qid) {
                    self.install(ctx, qid);
                }
            }
            NetMsg::Tuples { qid, seq, items, provs } => {
                if self.refuse_torn_down(ctx, from, qid) {
                    return;
                }
                let received = self.transport.receive(from, qid, seq, items, provs);
                self.stats.dups_dropped += u64::from(received.duplicate);
                self.stats.gaps_skipped += received.gaps_skipped;
                for (items, provs) in received.ready {
                    self.deliver_tuples(ctx, from, qid, items, provs);
                }
                if let Some(ack) = received.ack {
                    send(ctx, from, ack);
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
            if self.instances.values().any(|i| i.has_pending() || i.gate.revivals_queued()) {
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
