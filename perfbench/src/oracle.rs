//! The route oracle: Dijkstra over the live subgraph of the simulator's
//! current topology, and the comparison that turns each wrong, missing or
//! extra route into a counted failure.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use dr_netsim::Topology;

/// Route map keyed by (source, destination): the cost of each finite route.
pub type Expected = BTreeMap<(u32, u32), f64>;

/// One finite route a node reported: (source, destination, cost).
pub type Reported = (u32, u32, f64);

/// Outcome of comparing reported routes against the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// (source, destination) pairs checked: every pair the oracle or a node
    /// has a route for.
    pub attempted: u64,
    /// Routes whose cost differs from the shortest live path.
    pub wrong_cost: u64,
    /// Reachable destinations the node has no finite route to.
    pub missing: u64,
    /// Finite routes to unreachable or dead destinations, and duplicates.
    pub extra: u64,
    /// Deployments left holding query state after their last teardown.
    pub residue: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.wrong_cost + self.missing + self.extra + self.residue
    }

    pub fn merge(&mut self, other: &Verdict) {
        self.attempted += other.attempted;
        self.wrong_cost += other.wrong_cost;
        self.missing += other.missing;
        self.extra += other.extra;
        self.residue += other.residue;
    }
}

#[derive(PartialEq)]
struct Item(f64, usize);

impl Eq for Item {}

impl Ord for Item {
    fn cmp(&self, other: &Item) -> Ordering {
        // Min-heap on cost.
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Item) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest route costs between live nodes over the directed links of
/// `topology`. `overrides` replaces the cost of individual directed links
/// (a fact injected into one query's `link` relation).
pub fn expected_routes(
    topology: &Topology,
    live: &[bool],
    overrides: &[(u32, u32, f64)],
) -> Expected {
    let n = topology.num_nodes();
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (from, to, params) in topology.all_links() {
        let (a, b) = (from.index(), to.index());
        if !live[a] || !live[b] {
            continue;
        }
        let cost = overrides
            .iter()
            .find(|(x, y, _)| *x as usize == a && *y as usize == b)
            .map_or(params.cost.value(), |o| o.2);
        if cost.is_finite() {
            adj[a].push((b, cost));
        }
    }
    let mut out = Expected::new();
    for src in (0..n).filter(|&s| live[s]) {
        let mut dist = vec![f64::INFINITY; n];
        dist[src] = 0.0;
        let mut heap = BinaryHeap::from([Item(0.0, src)]);
        while let Some(Item(d, u)) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, c) in &adj[u] {
                if d + c < dist[v] {
                    dist[v] = d + c;
                    heap.push(Item(d + c, v));
                }
            }
        }
        for (dst, &d) in dist.iter().enumerate() {
            if dst != src && d.is_finite() {
                out.insert((src as u32, dst as u32), d);
            }
        }
    }
    out
}

fn same_cost(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(1.0)
}

/// Compare the routes live nodes reported against the oracle.
pub fn check(expected: &Expected, reported: &[Reported]) -> Verdict {
    let mut got: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
    for &(s, d, c) in reported {
        got.entry((s, d)).or_default().push(c);
    }
    let mut verdict = Verdict::default();
    for (pair, &want) in expected {
        verdict.attempted += 1;
        match got.get(pair) {
            None => verdict.missing += 1,
            Some(costs) => {
                if !same_cost(costs[0], want) {
                    verdict.wrong_cost += 1;
                }
                verdict.extra += costs.len() as u64 - 1;
            }
        }
    }
    for (pair, costs) in &got {
        if !expected.contains_key(pair) {
            verdict.attempted += 1;
            verdict.extra += costs.len() as u64;
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_netsim::LinkParams;
    use dr_types::{Cost, NodeId};

    fn square() -> Topology {
        // 0 -1- 1 -1- 2 -1- 3 -5- 0
        let mut t = Topology::new(4);
        let link = |c: f64| LinkParams::with_latency_ms(1.0).with_cost(Cost::new(c));
        t.add_bidirectional(NodeId::new(0), NodeId::new(1), link(1.0));
        t.add_bidirectional(NodeId::new(1), NodeId::new(2), link(1.0));
        t.add_bidirectional(NodeId::new(2), NodeId::new(3), link(1.0));
        t.add_bidirectional(NodeId::new(3), NodeId::new(0), link(5.0));
        t
    }

    fn as_reported(map: &Expected) -> Vec<Reported> {
        map.iter().map(|(&(s, d), &c)| (s, d, c)).collect()
    }

    #[test]
    fn dijkstra_uses_live_nodes_and_overrides() {
        let topo = square();
        let all = expected_routes(&topo, &[true; 4], &[]);
        assert_eq!(all.len(), 12);
        assert_eq!(all[&(0, 3)], 3.0);
        let without_2 = expected_routes(&topo, &[true, true, false, true], &[]);
        assert_eq!(without_2[&(0, 3)], 5.0);
        assert!(!without_2.contains_key(&(0, 2)));
        let pricier = expected_routes(&topo, &[true; 4], &[(0, 1, 4.0)]);
        assert_eq!(pricier[&(0, 1)], 4.0);
        assert_eq!(pricier[&(1, 0)], 1.0);
    }

    #[test]
    fn checker_flags_a_perturbed_route_map() {
        let topo = square();
        let expected = expected_routes(&topo, &[true; 4], &[]);
        let exact = as_reported(&expected);
        assert_eq!(check(&expected, &exact), Verdict { attempted: 12, ..Verdict::default() });

        let mut perturbed = exact.clone();
        perturbed[0].2 += 0.5; // one wrong cost
        perturbed.remove(1); // one missing route
        perturbed.push((0, 0, 1.0)); // one route the oracle does not have
        perturbed.push((2, 3, 1.0)); // one duplicate
        let verdict = check(&expected, &perturbed);
        assert_eq!(verdict.wrong_cost, 1);
        assert_eq!(verdict.missing, 1);
        assert_eq!(verdict.extra, 2);
        assert_eq!(verdict.failed(), 4);
        assert_eq!(verdict.attempted, 13);
    }
}
