//! Query issuances, specifications and the per-deployment query library.
//!
//! A [`QueryDef`] is one issuance: a Datalog program, the node and time it
//! is issued at, the relations replicated with it, and its
//! [`QueryOptions`] — aggregate selections (§7.1), result sharing through a
//! cache relation (§7.3, one per metric §9.1.3), provenance recording, and
//! the facts disseminated with the query (e.g. the `magicSources` /
//! `magicDsts` constants of a Best-Path-Pairs query). Issuing localizes the
//! program into a [`QuerySpec`]: the localized program plus those options.
//! The [`QueryLibrary`] maps query identifiers to specs; every node holds
//! the same library, so disseminating a query over the network only
//! requires flooding its identifier and facts — mirroring the paper's
//! observation (§3.5) that queries may be "baked in" or disseminated on
//! first use.

use crate::localize::LocalizedProgram;
use dr_datalog::ast::Program;
use dr_datalog::eval::RuleEval;
use dr_netsim::SimTime;
use dr_types::{NodeId, Tuple};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Identifier of an issued query.
pub type QueryId = u64;

/// The per-query switches of an issuance, carried by its [`QuerySpec`].
///
/// [`QueryOptions::default`] is the paper's common case and the one place
/// the defaults are written: aggregate selections on, sharing off through
/// `bestPathCache`, no extra facts, no provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// Human-readable name for logs and experiment output.
    pub name: String,
    /// Enable the aggregate-selections optimization (§7.1) for this query.
    pub aggregate_selections: bool,
    /// Share results across queries through a node-local cache table
    /// (§7.3): completed best paths are cached, and cached sub-paths are
    /// reused by later queries that consult the cache.
    pub share_results: bool,
    /// Name of the cross-query cache table used when `share_results` is on.
    /// Queries computing different link metrics should use different cache
    /// relations so they never share each other's (incomparable) costs —
    /// the paper's mixed-workload observation that "only queries that
    /// compute the same metric are likely to benefit from sharing" (§9.1.3).
    pub cache_relation: String,
    /// Facts installed when the query is disseminated. Facts of replicated
    /// relations are installed at every node; other facts are installed only
    /// at the node named by their location field.
    pub facts: Vec<Tuple>,
    /// Record derivation provenance for this query: every rule firing is
    /// written into a per-node arena (see `dr_provenance::ProvStore`) and
    /// shipped tuples carry a `(node, ProvId)` pointer back to their
    /// deriving node, enabling distributed route explanations. Off by
    /// default — when off, no store is allocated and the evaluation hot
    /// path is byte-identical to a build without provenance.
    pub record_provenance: bool,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            name: "query".to_string(),
            aggregate_selections: true,
            share_results: false,
            cache_relation: "bestPathCache".to_string(),
            facts: Vec::new(),
            record_provenance: false,
        }
    }
}

/// A query issuance as plain data: what `RoutingHarness::issue` localizes,
/// registers and disseminates, and what a scenario replays in order.
///
/// [`QueryDef::new`] issues from node 0 at t=0 with no replicated
/// relations and the default [`QueryOptions`]; the fluent setters override
/// one value each.
#[derive(Debug, Clone)]
pub struct QueryDef {
    /// The program to localize and run.
    pub program: Program,
    /// The node that issues (and floods) the query.
    pub issuer: NodeId,
    /// The simulated time at which the query is injected.
    pub at: SimTime,
    /// Relations replicated to every node during dissemination (query
    /// constants such as `magicSources` / `magicDsts`); localization bakes
    /// the rewrite into the program.
    pub replicated: Vec<String>,
    /// The per-query switches the spec carries.
    pub options: QueryOptions,
}

impl QueryDef {
    /// An issuance of `program` with the default options.
    pub fn new(program: Program) -> QueryDef {
        QueryDef {
            program,
            issuer: NodeId::new(0),
            at: SimTime::ZERO,
            replicated: Vec::new(),
            options: QueryOptions::default(),
        }
    }

    /// The node that issues (and floods) the query. Default: node 0.
    #[allow(clippy::should_implement_trait)] // fluent DSL: `.from(node)` reads as prose
    pub fn from(mut self, issuer: NodeId) -> Self {
        self.issuer = issuer;
        self
    }

    /// The simulated time at which the query is injected. Default: t=0.
    pub fn at(mut self, at: SimTime) -> Self {
        self.at = at;
        self
    }

    /// Human-readable name for logs, reports and experiment output.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.options.name = name.into();
        self
    }

    /// Relations replicated to every node during dissemination.
    pub fn replicated<I, S>(mut self, relations: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.replicated = relations.into_iter().map(Into::into).collect();
        self
    }

    /// Toggle the aggregate-selections optimization (§7.1). Default: on.
    pub fn aggregate_selections(mut self, on: bool) -> Self {
        self.options.aggregate_selections = on;
        self
    }

    /// Toggle multi-query result sharing through the cache relation (§7.3).
    /// Default: off.
    pub fn sharing(mut self, on: bool) -> Self {
        self.options.share_results = on;
        self
    }

    /// Override the cross-query cache relation (queries computing different
    /// metrics must not share each other's costs, §9.1.3).
    pub fn cache_relation(mut self, relation: impl Into<String>) -> Self {
        self.options.cache_relation = relation.into();
        self
    }

    /// Record derivation provenance, enabling `RoutingHarness::explain`.
    /// Default: off.
    pub fn provenance(mut self, on: bool) -> Self {
        self.options.record_provenance = on;
        self
    }

    /// Facts installed together with the query (replicated relations go to
    /// every node, located facts only to the node they name).
    pub fn facts(mut self, facts: Vec<Tuple>) -> Self {
        self.options.facts = facts;
        self
    }

    /// Append one fact.
    pub fn fact(mut self, fact: Tuple) -> Self {
        self.options.facts.push(fact);
        self
    }
}

/// A query (routing protocol or route request) ready for distributed
/// execution.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Unique identifier used in dissemination and tuple messages.
    pub id: QueryId,
    /// The localized program.
    pub program: Arc<LocalizedProgram>,
    /// The per-query switches of the issuance.
    pub options: QueryOptions,
    /// Statically compiled rule plans, built lazily on the first
    /// installation and shared by every node instance of this spec. Every
    /// local table is empty at installation time, so the static plans are
    /// identical across nodes — compiling them per node would repeat the
    /// same work `O(nodes)` times (see [`QuerySpec::static_plans`]).
    static_plans: OnceLock<Arc<Vec<RuleEval>>>,
}

impl QuerySpec {
    /// A spec named `name` with the default [`QueryOptions`].
    pub fn new(id: QueryId, name: impl Into<String>, program: Arc<LocalizedProgram>) -> QuerySpec {
        QuerySpec {
            id,
            program,
            options: QueryOptions { name: name.into(), ..QueryOptions::default() },
            static_plans: OnceLock::new(),
        }
    }

    /// The statically compiled evaluation plans, one per localized rule
    /// (same order as `program.rules`). Compiled on first call and cached on
    /// the spec: the library hands the same `Arc<QuerySpec>` to every node,
    /// so a deployment compiles each query once instead of once per node.
    /// Instances that later re-plan against real cardinalities swap in their
    /// own plan vector and leave the shared one untouched.
    pub fn static_plans(&self) -> Arc<Vec<RuleEval>> {
        Arc::clone(self.static_plans.get_or_init(|| {
            Arc::new(self.program.rules.iter().map(|lrule| RuleEval::new(&lrule.rule)).collect())
        }))
    }
}

/// The set of query specs known to every node in a deployment.
///
/// The library is shared (via `Arc`) by every node's processor and by the
/// experiment harness, which keeps registering new queries while the
/// simulation runs; it therefore uses interior mutability.
#[derive(Debug, Default)]
pub struct QueryLibrary {
    specs: std::sync::RwLock<HashMap<QueryId, Arc<QuerySpec>>>,
}

impl QueryLibrary {
    /// An empty library.
    pub fn new() -> QueryLibrary {
        QueryLibrary::default()
    }

    /// Register a spec; replaces any previous spec with the same id.
    pub fn register(&self, spec: QuerySpec) -> Arc<QuerySpec> {
        let arc = Arc::new(spec);
        self.specs.write().expect("query library lock poisoned").insert(arc.id, Arc::clone(&arc));
        arc
    }

    /// Look up a spec by id.
    pub fn get(&self, id: QueryId) -> Option<Arc<QuerySpec>> {
        self.specs.read().expect("query library lock poisoned").get(&id).cloned()
    }

    /// Number of registered specs.
    pub fn len(&self) -> usize {
        self.specs.read().expect("query library lock poisoned").len()
    }

    /// True when the library has no specs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-register an already-shared spec under its own id (lazy install
    /// repair: a node answering a `QueryRequest` puts the spec back so the
    /// requester's installation finds it). No-op if the id is already bound.
    pub fn restore(&self, spec: Arc<QuerySpec>) {
        self.specs.write().expect("query library lock poisoned").entry(spec.id).or_insert(spec);
    }

    /// Remove a spec (e.g. when its query's lifetime expires).
    pub fn remove(&self, id: QueryId) -> Option<Arc<QuerySpec>> {
        self.specs.write().expect("query library lock poisoned").remove(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localize::localize;
    use dr_datalog::parse_program;
    use dr_types::Value;

    fn sample_program() -> Arc<LocalizedProgram> {
        let p = parse_program(
            r#"
            NR1: path(@S,D,P,C) :- link(@S,D,C), P = f_initPath(S,D).
            Query: path(@S,D,P,C).
            "#,
        )
        .unwrap();
        Arc::new(localize(&p, &[]).unwrap())
    }

    #[test]
    fn def_setters_fill_the_options() {
        let def = QueryDef::new(Program::default())
            .from(NodeId::new(2))
            .at(SimTime::from_secs(1))
            .named("pairs")
            .replicated(["magicDsts"])
            .aggregate_selections(false)
            .sharing(true)
            .cache_relation("latCache")
            .provenance(true)
            .fact(Tuple::new("magicSources", vec![Value::Node(NodeId::new(3))]));
        assert_eq!((def.issuer, def.at), (NodeId::new(2), SimTime::from_secs(1)));
        assert_eq!(def.replicated, vec!["magicDsts".to_string()]);
        assert_eq!(
            def.options,
            QueryOptions {
                name: "pairs".to_string(),
                aggregate_selections: false,
                share_results: true,
                cache_relation: "latCache".to_string(),
                facts: vec![Tuple::new("magicSources", vec![Value::Node(NodeId::new(3))])],
                record_provenance: true,
            }
        );
    }

    #[test]
    fn defaults_enable_aggregate_selections_only() {
        let spec = QuerySpec::new(1, "q", sample_program());
        assert_eq!(spec.options, QueryOptions { name: "q".to_string(), ..QueryOptions::default() });
        assert!(spec.options.aggregate_selections);
        assert!(!spec.options.share_results);
        assert!(spec.options.facts.is_empty());
        assert!(!spec.options.record_provenance);
        assert_eq!(QueryDef::new(Program::default()).options, QueryOptions::default());
    }

    #[test]
    fn library_register_get_remove() {
        let lib = QueryLibrary::new();
        assert!(lib.is_empty());
        lib.register(QuerySpec::new(1, "a", sample_program()));
        lib.register(QuerySpec::new(2, "b", sample_program()));
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.get(1).unwrap().options.name, "a");
        assert!(lib.get(9).is_none());
        assert!(lib.remove(1).is_some());
        assert!(lib.get(1).is_none());
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn register_replaces_existing_id() {
        let lib = QueryLibrary::new();
        lib.register(QuerySpec::new(1, "old", sample_program()));
        lib.register(QuerySpec::new(1, "new", sample_program()));
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.get(1).unwrap().options.name, "new");
    }

    #[test]
    fn library_is_shareable_across_nodes() {
        let lib = Arc::new(QueryLibrary::new());
        let other = Arc::clone(&lib);
        lib.register(QuerySpec::new(5, "shared", sample_program()));
        assert_eq!(other.get(5).unwrap().options.name, "shared");
    }
}
