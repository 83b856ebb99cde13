//! The aggregate-selection admission gate: which derived tuple is admitted,
//! which is pruned, and which dead route group gets revived.
//!
//! Aggregate selections (§7.1) prune a tuple before it is stored or shipped
//! when a strictly better one is already known for its *prune group*: the
//! aggregate's group extended with every node-valued field outside the
//! group and the first hop of any path-vector field. One best route is thus
//! kept per next hop, so alternate routes survive to take over after a
//! failure (§8).
//!
//! Infinite-cost derivations are special-cased. An ∞ tombstone's only job
//! is invalidating the stored or shipped best path and its cache entries
//! (§8 rule NR3). Since every ∞ derivation ties in the aggregate, admitting
//! them all would enumerate the whole failed path space; instead only the
//! tombstones that actually invalidate something this node stored or
//! shipped are admitted — one per prune group plus one per stale stored
//! tuple — and every other ∞ derivation collapses. Failure recovery becomes
//! a single invalidation wave over the existing routing state instead of an
//! exponential re-exploration.
//!
//! A group whose recorded best was poisoned queues a *revival*: its
//! surviving alternatives are stored state, not deltas, so semi-naïve
//! evaluation alone would never re-derive and re-ship them. Revivals run at
//! the start of a batch once the invalidation wave has died down (see
//! [`AdmissionGate::REVIVE_QUIET_BATCHES`]).
//!
//! The gate is sans-I/O: the processor hands it the query's local store and
//! neighbor table and applies what it returns.

use crate::localize::LocalizedProgram;
use dr_datalog::ast::AggFunc;
use dr_datalog::database::Database;
use dr_datalog::rewrite::AggSelection;
use dr_types::{Cost, NodeId, RelId, Tuple, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Outcome of the admission check for one tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Store or ship the tuple.
    Admit,
    /// A strictly better tuple for the prune group is already known.
    Dominated,
    /// An ∞-cost tombstone that invalidates nothing this node stored or
    /// shipped — dropped instead of propagated (§8).
    TombstoneCollapsed,
}

/// A prune group: the input relation and the group's values.
type PruneKey = (RelId, Vec<Value>);

/// A revival request: `(input relation, its aggregate value field, required
/// (field, value) bindings)` of a prune group whose recorded best was just
/// poisoned to ∞.
type ReviveRequest = (RelId, usize, Vec<(usize, Value)>);

/// Deltas to re-inject, per relation.
pub(crate) type Revived = Vec<(RelId, Vec<Tuple>)>;

/// The admission state of one query at one node.
pub(crate) struct AdmissionGate {
    program: Arc<LocalizedProgram>,
    /// Whether the query runs aggregate selections at all; when off every
    /// tuple is admitted and batches keep their arrival order.
    enabled: bool,
    /// Prune group → (identity key of its current best, its value).
    prune: HashMap<PruneKey, (Vec<Value>, Value)>,
    /// Number of `prune` entries whose recorded best is an ∞ tombstone, so
    /// the eviction sweep can be skipped entirely in steady state.
    tombstones: usize,
    /// Queued revivals (see [`AdmissionGate::start_batch`]).
    revive: HashSet<ReviveRequest>,
    /// Set whenever an ∞ tombstone reaches the gate — the signal that an
    /// invalidation wave is still active nearby.
    poison_seen: bool,
    /// Consecutive batches that started idle with no tombstone sightings.
    quiet: u32,
}

impl AdmissionGate {
    /// Consecutive idle, tombstone-free batches required before a queued
    /// revival round may run. A batch that starts with no pending deltas
    /// only proves the invalidation wave has passed *this node*; on dense
    /// overlays a wave keeps bouncing between farther nodes for many batch
    /// intervals, and reviving into it re-floods routes the in-flight poisons
    /// are about to kill — each re-flood feeds the wave new tombstones, whose
    /// arrival queues further revivals, a self-sustaining storm that melts
    /// the 36-node dense-overlay churn figure. Demanding a short window with
    /// no ∞ tombstone sightings either is a cheap local proxy for "the wave
    /// has died down globally", and it spaces repeat rounds automatically: a
    /// round drains the whole queue, so the queue can only refill through new
    /// tombstones, which reset this very counter.
    pub(crate) const REVIVE_QUIET_BATCHES: u32 = 2;

    /// Prune-map size at or below which the eviction sweep never runs.
    pub(crate) const SWEEP_FLOOR: usize = 64;

    /// An empty gate for a query running `program`, with aggregate
    /// selections on or off.
    pub(crate) fn new(program: Arc<LocalizedProgram>, enabled: bool) -> AdmissionGate {
        AdmissionGate {
            program,
            enabled,
            prune: HashMap::new(),
            tombstones: 0,
            revive: HashSet::new(),
            poison_seen: false,
            quiet: 0,
        }
    }

    /// Number of prune-map entries held.
    pub(crate) fn entries(&self) -> usize {
        self.prune.len()
    }

    /// True when revivals are queued: they only run in a batch that starts
    /// idle, so the caller must keep a next batch coming.
    pub(crate) fn revivals_queued(&self) -> bool {
        !self.revive.is_empty()
    }

    /// Admission check for `tuple` at node `me`, whose local store is `db`.
    /// Keeps updates of the current best (same identity key) and tuples at
    /// least as good as the best known for their prune group; ∞ tombstones
    /// pass only as the module doc describes.
    pub(crate) fn admit(&mut self, db: &Database, tuple: &Tuple, me: NodeId) -> Admission {
        if !self.enabled {
            return Admission::Admit;
        }
        let program = &self.program;
        let Some(sel) = selection(program, tuple.rel()) else { return Admission::Admit };
        let Some(value) = tuple.field(sel.value_field).cloned() else {
            return Admission::Admit;
        };
        let (key, identity) = prune_key_and_identity(sel, program, tuple);

        if value.is_infinite_cost() {
            // Tombstone sighted (whatever its fate below): the invalidation
            // wave is still active here — hold queued revivals back.
            self.poison_seen = true;
            // Tombstone of the group's shipped/stored best: record the ∞ so
            // any finite alternative (other next hop) can take the slot,
            // and let the invalidation propagate.
            let invalidates_best = matches!(
                self.prune.get(&key),
                Some((best_id, best_val)) if *best_id == identity && !best_val.is_infinite_cost()
            );
            let loc = program.catalog.location_field(tuple.rel());
            if invalidates_best {
                // Finite → ∞ transition of the group's recorded best: the
                // entry becomes evictable once the wave has run, and the
                // group's surviving alternatives get revived.
                self.tombstones += 1;
                let bindings: Vec<(usize, Value)> = sel
                    .group_fields
                    .iter()
                    .filter(|&&g| g != loc)
                    .filter_map(|&g| tuple.field(g).cloned().map(|v| (g, v)))
                    .collect();
                self.revive.insert((tuple.rel(), sel.value_field, bindings));
                self.prune.insert(key, (identity, value));
                return Admission::Admit;
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
            if tuple.node_at(loc) != Some(me) {
                return Admission::Admit;
            }
            // Tombstone of a dominated-but-stored tuple (an older route this
            // node still holds): admit so the keyed upsert poisons the stale
            // entry, but without touching the group best.
            let key_fields = program.catalog.key_fields(tuple.rel(), tuple.arity());
            let poisons_stored =
                db.get_by_key(&tuple.key(&key_fields)).is_some_and(|stored| stored != tuple);
            return if poisons_stored { Admission::Admit } else { Admission::TombstoneCollapsed };
        }

        let admit = match self.prune.get(&key) {
            None => true,
            Some((best_id, best_val)) => {
                // An update (possibly worse) of the current best, or at
                // least as good as it.
                let admit = *best_id == identity || better_or_equal(sel.func, &value, best_val);
                // `value` is finite here: a revived group stops being a
                // tombstone.
                if admit && best_val.is_infinite_cost() {
                    self.tombstones = self.tombstones.saturating_sub(1);
                }
                admit
            }
        };
        if !admit {
            return Admission::Dominated;
        }
        self.prune.insert(key, (identity, value));
        Admission::Admit
    }

    /// Reorder one delivered batch so the gate sees, per selected relation,
    /// ∞ tombstones first and finite tuples best-value first.
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
    pub(crate) fn order_batch<T: Clone>(&self, batch: &mut [(Tuple, T)]) {
        if !self.enabled {
            return;
        }
        for sel in &self.program.agg_selections {
            let idx: Vec<usize> = batch
                .iter()
                .enumerate()
                .filter(|(_, (t, _))| t.rel() == sel.input_relation)
                .map(|(i, _)| i)
                .collect();
            if idx.len() < 2 {
                continue;
            }
            let mut members: Vec<(Tuple, T)> = idx.iter().map(|&i| batch[i].clone()).collect();
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
                            AggFunc::Max => ord.reverse(),
                            _ => ord,
                        }
                    }
                    _ => Ordering::Equal,
                })
            });
            for (&i, m) in idx.iter().zip(members) {
                batch[i] = m;
            }
        }
    }

    /// Start a batch round: `idle` says the round starts with no pending
    /// deltas. Returns the revived deltas to inject, if a revival round is
    /// due.
    ///
    /// Revival is deferred to an idle batch, meaning nothing arrived since
    /// the previous batch and the invalidation wave has passed this node.
    /// Reviving mid-wave would re-flood routes the in-flight poisons are
    /// about to kill — and since most prune groups are ∞ during the wave,
    /// every revived derivation would be admitted, stored, extended and
    /// shipped, re-exploring the path space the tombstone collapse exists
    /// to avoid. Idleness alone is not sufficient either; see
    /// [`AdmissionGate::REVIVE_QUIET_BATCHES`].
    pub(crate) fn start_batch(
        &mut self,
        idle: bool,
        db: &Database,
        neighbors: &BTreeMap<NodeId, Cost>,
    ) -> Revived {
        if !idle || self.poison_seen {
            self.poison_seen = false;
            self.quiet = 0;
            return Vec::new();
        }
        self.quiet = self.quiet.saturating_add(1);
        if self.quiet < Self::REVIVE_QUIET_BATCHES {
            return Vec::new();
        }
        self.revivals(db, neighbors)
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
    fn revivals(&mut self, db: &Database, neighbors: &BTreeMap<NodeId, Cost>) -> Revived {
        let mut out = Vec::new();
        for (rel, value_field, bindings) in self.revive.drain() {
            let Some(sel) = selection(&self.program, rel) else { continue };
            let revived: Vec<Tuple> = db
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
                // when the neighbor later revives, the processor's copy
                // re-injection re-fires these joins anyway.
                .filter(|t| {
                    t.fields().iter().all(|f| match f {
                        Value::Path(p) if p.len() >= 2 => {
                            neighbors.get(&p.nodes()[1]).map(|c| c.is_finite()).unwrap_or(false)
                        }
                        _ => true,
                    })
                })
                .filter(|t| {
                    let (key, identity) = prune_key_and_identity(sel, &self.program, t);
                    matches!(
                        self.prune.get(&key),
                        Some((best_id, best_val))
                            if *best_id == identity && !best_val.is_infinite_cost()
                    )
                })
                .cloned()
                .collect();
            if !revived.is_empty() {
                out.push((rel, revived));
            }
        }
        out
    }

    /// Evict the prune entries of groups whose route is dead — the recorded
    /// best is an ∞-cost tombstone — so churn cannot grow the map
    /// monotonically, one entry per route group ever considered. Returns
    /// the number of entries evicted.
    ///
    /// Only ∞ entries are evictable. A finite entry may back a best that
    /// was *shipped* rather than stored locally, and it is what lets the
    /// next ∞ derivation for its group pass the invalidation check in
    /// [`AdmissionGate::admit`] — dropping it would collapse a tombstone
    /// the remote home still needs. An ∞ entry, by contrast, has already
    /// done its job: the group's invalidation was admitted and propagated.
    /// After eviction a finite revival of the group is simply admitted
    /// fresh (it would have beaten ∞ anyway), and further ∞ ties still
    /// collapse through the stored-tuple check, so recovery semantics are
    /// unchanged while dead groups stop accumulating.
    ///
    /// The sweep only runs when the map outgrows [`Self::SWEEP_FLOOR`]
    /// *and* actually holds tombstones, so converged steady-state batches —
    /// all finite entries — never pay the O(map) scan.
    pub(crate) fn evict(&mut self) -> u64 {
        if self.tombstones == 0 || self.prune.len() <= Self::SWEEP_FLOOR {
            return 0;
        }
        let before = self.prune.len();
        self.prune.retain(|_, (_, value)| !value.is_infinite_cost());
        self.tombstones = 0;
        (before - self.prune.len()) as u64
    }
}

/// The aggregate selection fed by `rel`, if any.
fn selection(program: &LocalizedProgram, rel: RelId) -> Option<&AggSelection> {
    program.agg_selections.iter().find(|s| s.input_relation == rel)
}

/// True when `a` is at least as good as `b` under the aggregate `func`.
fn better_or_equal(func: AggFunc, a: &Value, b: &Value) -> bool {
    match func {
        AggFunc::Min => a.compare_numeric(b) != Ordering::Greater,
        AggFunc::Max => a.compare_numeric(b) != Ordering::Less,
        _ => true,
    }
}

/// The prune-map coordinates of a tuple: its group key (aggregate group
/// extended with every node-valued field outside the group and the first
/// hop of any path-vector field — i.e. per next hop) and its identity (the
/// catalog key fields, distinguishing updates of one route from competing
/// routes).
fn prune_key_and_identity(
    sel: &AggSelection,
    program: &LocalizedProgram,
    tuple: &Tuple,
) -> (PruneKey, Vec<Value>) {
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
    let identity: Vec<Value> = key_fields.iter().filter_map(|&i| tuple.field(i).cloned()).collect();
    ((tuple.rel(), group), identity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localize::localize;
    use dr_datalog::parse_program;
    use dr_types::PathVector;

    const BEST_PATH: &str = r#"
        #key(path, 0, 1, 2).
        #key(bestPathCost, 0, 1).
        NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
        BPR1: bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
        Query: bestPathCost(@S,D,C).
    "#;

    const WIDEST: &str = r#"
        #key(bw, 0, 1, 2).
        #key(bestBw, 0, 1).
        W1: bestBw(@S,D,max<B>) :- bw(@S,D,Z,B).
        Query: bestBw(@S,D,B).
    "#;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn gate(source: &str) -> (AdmissionGate, Database) {
        let program = Arc::new(localize(&parse_program(source).unwrap(), &[]).unwrap());
        let mut db = Database::new();
        for (rel, keys) in program.key_declarations() {
            db.declare_key(rel, keys);
        }
        (AdmissionGate::new(program, true), db)
    }

    /// `path(@s, d, hops, cost)`; `None` is an ∞ tombstone.
    fn path(hops: &[u32], cost: Option<f64>) -> Tuple {
        let nodes: Vec<NodeId> = hops.iter().map(|&h| n(h)).collect();
        Tuple::new(
            "path",
            vec![
                Value::Node(nodes[0]),
                Value::Node(*nodes.last().unwrap()),
                Value::Path(PathVector::from_nodes(nodes)),
                Value::Cost(cost.map_or(Cost::INFINITY, Cost::new)),
            ],
        )
    }

    /// Node 0's neighbors, each with its cost (`None` is down).
    fn neighbors(links: &[(u32, Option<f64>)]) -> BTreeMap<NodeId, Cost> {
        links.iter().map(|&(nb, c)| (n(nb), c.map_or(Cost::INFINITY, Cost::new))).collect()
    }

    /// The cost of every `path` tuple, in batch order (∞ as `None`).
    fn costs(batch: &[(Tuple, u32)]) -> Vec<Option<f64>> {
        batch
            .iter()
            .map(|(t, _)| t.fields().last().and_then(Value::as_cost))
            .map(|c| c.filter(|c| c.is_finite()).map(Cost::value))
            .collect()
    }

    #[test]
    fn prune_groups_are_per_next_hop() {
        let (mut g, db) = gate(BEST_PATH);
        assert_eq!(g.admit(&db, &path(&[0, 1, 3], Some(2.0)), n(0)), Admission::Admit);
        // Worse, through the same next hop: dominated.
        assert_eq!(g.admit(&db, &path(&[0, 1, 2, 3], Some(3.0)), n(0)), Admission::Dominated);
        // Worse, but through another next hop: its own group.
        assert_eq!(g.admit(&db, &path(&[0, 2, 3], Some(5.0)), n(0)), Admission::Admit);
        assert_eq!(g.entries(), 2);
        // A worse update of the current best replaces it ...
        assert_eq!(g.admit(&db, &path(&[0, 1, 3], Some(4.0)), n(0)), Admission::Admit);
        // ... so the route it dominated before now wins the group.
        assert_eq!(g.admit(&db, &path(&[0, 1, 2, 3], Some(3.0)), n(0)), Admission::Admit);
        assert_eq!(g.entries(), 2);
        // Relations without a selection always pass.
        let link = Tuple::new("link", vec![Value::Node(n(0)), Value::Node(n(1))]);
        assert_eq!(g.admit(&db, &link, n(0)), Admission::Admit);
    }

    #[test]
    fn disabled_gate_admits_everything_in_arrival_order() {
        let (g, db) = gate(BEST_PATH);
        let mut g = AdmissionGate::new(g.program, false);
        assert_eq!(g.admit(&db, &path(&[0, 1, 3], Some(2.0)), n(0)), Admission::Admit);
        assert_eq!(g.admit(&db, &path(&[0, 1, 2, 3], Some(3.0)), n(0)), Admission::Admit);
        assert_eq!(g.entries(), 0);
        let mut batch = vec![(path(&[0, 1, 3], Some(5.0)), 0), (path(&[0, 2, 3], None), 1)];
        g.order_batch(&mut batch);
        assert_eq!(costs(&batch), vec![Some(5.0), None]);
    }

    #[test]
    fn tombstones_pass_only_when_they_invalidate() {
        let (mut g, mut db) = gate(BEST_PATH);
        g.admit(&db, &path(&[0, 1, 3], Some(2.0)), n(0));
        // The ∞ of the recorded best is admitted and queues a revival.
        assert!(!g.revivals_queued());
        assert_eq!(g.admit(&db, &path(&[0, 1, 3], None), n(0)), Admission::Admit);
        assert!(g.revivals_queued());
        // A second ∞ for the now-dead group ties and collapses.
        assert_eq!(g.admit(&db, &path(&[0, 1, 2, 3], None), n(0)), Admission::TombstoneCollapsed);
        // So does one for a group this node never recorded ...
        assert_eq!(g.admit(&db, &path(&[0, 2, 3], None), n(0)), Admission::TombstoneCollapsed);
        // ... unless it poisons a route this node still stores.
        db.insert(path(&[0, 2, 3], Some(5.0)));
        assert_eq!(g.admit(&db, &path(&[0, 2, 3], None), n(0)), Admission::Admit);
        // A tombstone homed at another node is the home's to check.
        assert_eq!(g.admit(&db, &path(&[4, 2, 3], None), n(0)), Admission::Admit);
        // A finite route takes the dead group's slot back.
        assert_eq!(g.admit(&db, &path(&[0, 1, 4, 3], Some(7.0)), n(0)), Admission::Admit);
    }

    #[test]
    fn eviction_runs_only_above_its_floor_and_with_tombstones() {
        let (mut g, db) = gate(BEST_PATH);
        let floor = AdmissionGate::SWEEP_FLOOR as u32;
        for d in 2..floor + 2 {
            g.admit(&db, &path(&[0, 1, d], Some(1.0)), n(0));
        }
        g.admit(&db, &path(&[0, 1, 2], None), n(0));
        assert_eq!(g.entries(), AdmissionGate::SWEEP_FLOOR);
        assert_eq!(g.evict(), 0, "at the floor");
        g.admit(&db, &path(&[0, 1, floor + 2], Some(1.0)), n(0));
        assert_eq!(g.evict(), 1, "above the floor, one tombstone");
        assert_eq!(g.entries(), AdmissionGate::SWEEP_FLOOR);
        g.admit(&db, &path(&[0, 1, floor + 3], Some(1.0)), n(0));
        assert_eq!(g.evict(), 0, "above the floor, no tombstones");
        // A revived group is no longer a tombstone.
        g.admit(&db, &path(&[0, 1, 3], None), n(0));
        g.admit(&db, &path(&[0, 1, 4, 3], Some(2.0)), n(0));
        assert_eq!(g.evict(), 0);
    }

    #[test]
    fn revivals_wait_for_quiet_batches_and_skip_dead_next_hops() {
        let (mut g, mut db) = gate(BEST_PATH);
        let alive = neighbors(&[(1, Some(1.0)), (2, Some(1.0))]);
        let alt = path(&[0, 2, 3], Some(3.0));
        // The store keeps dominated routes too.
        for t in [path(&[0, 1, 3], Some(2.0)), alt.clone(), path(&[0, 2, 4, 3], Some(4.0))] {
            g.admit(&db, &t, n(0));
            db.insert(t);
        }
        db.insert(path(&[0, 1, 3], None));
        g.admit(&db, &path(&[0, 1, 3], None), n(0));
        // The batch that saw the tombstone, then one quiet batch: wait.
        assert!(g.start_batch(true, &db, &alive).is_empty());
        assert!(g.start_batch(true, &db, &alive).is_empty());
        // A busy batch restarts the count.
        assert!(g.start_batch(false, &db, &alive).is_empty());
        assert!(g.start_batch(true, &db, &alive).is_empty());
        // A tombstone sighting does too, even a collapsed one.
        assert_eq!(g.admit(&db, &path(&[0, 2, 5, 3], None), n(0)), Admission::TombstoneCollapsed);
        assert!(g.start_batch(true, &db, &alive).is_empty());
        assert!(g.start_batch(true, &db, &alive).is_empty());
        assert!(g.revivals_queued());
        // Two quiet batches in a row: the group bests of the other next
        // hops are re-injected (the dominated [0,2,4,3] is not).
        let relid = RelId::intern("path");
        assert_eq!(g.start_batch(true, &db, &alive), vec![(relid, vec![alt.clone()])]);
        assert!(!g.revivals_queued());

        // The same, with the alternative's next hop down: nothing revives.
        g.admit(&db, &path(&[0, 1, 4, 3], Some(5.0)), n(0));
        g.admit(&db, &path(&[0, 1, 4, 3], None), n(0));
        let down = neighbors(&[(1, Some(1.0)), (2, None)]);
        for _ in 0..AdmissionGate::REVIVE_QUIET_BATCHES {
            assert!(g.start_batch(true, &db, &down).is_empty());
        }
        assert!(g.start_batch(true, &db, &down).is_empty());
        assert!(!g.revivals_queued(), "the round ran and drained the queue");
    }

    #[test]
    fn batches_are_ordered_tombstones_first_then_best_first() {
        let (g, _) = gate(BEST_PATH);
        let link = Tuple::new("link", vec![Value::Node(n(0)), Value::Node(n(1))]);
        let mut batch = vec![
            (path(&[0, 1, 3], Some(5.0)), 0),
            (path(&[0, 1, 4], None), 1),
            (link.clone(), 2),
            (path(&[0, 2, 3], Some(2.0)), 3),
            (path(&[0, 2, 4], Some(3.0)), 4),
        ];
        g.order_batch(&mut batch);
        assert_eq!(batch[2], (link, 2), "other relations keep their slots");
        let tags: Vec<u32> = batch.iter().map(|(_, tag)| *tag).collect();
        assert_eq!(tags, vec![1, 3, 2, 4, 0]);

        let (g, _) = gate(WIDEST);
        let bw = |z: u32, b: Option<f64>| {
            Tuple::new(
                "bw",
                vec![
                    Value::Node(n(0)),
                    Value::Node(n(3)),
                    Value::Node(n(z)),
                    Value::Cost(b.map_or(Cost::INFINITY, Cost::new)),
                ],
            )
        };
        let mut batch = vec![(bw(1, Some(2.0)), 0), (bw(2, Some(5.0)), 1), (bw(4, None), 2)];
        g.order_batch(&mut batch);
        assert_eq!(costs(&batch), vec![None, Some(5.0), Some(2.0)]);
    }
}
