//! Computational DAGs (cDAGs) for the red-blue pebble game.
//!
//! Every vertex represents one *version* of one array element (Section 2.2
//! of the paper distinguishes elements from vertices: `A[i,j]` before and
//! after an update are different vertices). Edges are data dependencies.

use std::collections::HashMap;

/// Vertex identifier within one [`CDag`].
pub type VertexId = u32;

/// A computational directed acyclic graph.
#[derive(Clone, Debug, Default)]
pub struct CDag {
    preds: Vec<Vec<VertexId>>,
    succs: Vec<Vec<VertexId>>,
    labels: Vec<String>,
}

impl CDag {
    /// An empty cDAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a vertex with a debugging label; returns its id.
    pub fn add_vertex(&mut self, label: impl Into<String>) -> VertexId {
        let id = self.preds.len() as VertexId;
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.labels.push(label.into());
        id
    }

    /// Add a dependency edge `u -> v` (`v` consumes `u`).
    ///
    /// # Panics
    /// Panics on out-of-range ids or self-loops.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(u != v, "self-loop in cDAG");
        assert!((u as usize) < self.preds.len() && (v as usize) < self.preds.len());
        self.preds[v as usize].push(u);
        self.succs[u as usize].push(v);
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True iff the cDAG has no vertices.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Predecessors of `v`.
    pub fn preds(&self, v: VertexId) -> &[VertexId] {
        &self.preds[v as usize]
    }

    /// Successors of `v`.
    pub fn succs(&self, v: VertexId) -> &[VertexId] {
        &self.succs[v as usize]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.succs[v as usize].len()
    }

    /// Vertices with no predecessors (the graph inputs, which start with
    /// blue pebbles).
    pub fn inputs(&self) -> Vec<VertexId> {
        (0..self.len() as VertexId)
            .filter(|&v| self.preds(v).is_empty())
            .collect()
    }

    /// Vertices with no successors (the graph outputs, which must end with
    /// blue pebbles).
    pub fn outputs(&self) -> Vec<VertexId> {
        (0..self.len() as VertexId)
            .filter(|&v| self.succs(v).is_empty())
            .collect()
    }

    /// Non-input vertices (the ones that must be computed).
    pub fn compute_vertices(&self) -> Vec<VertexId> {
        (0..self.len() as VertexId)
            .filter(|&v| !self.preds(v).is_empty())
            .collect()
    }

    /// A topological order of all vertices.
    ///
    /// # Panics
    /// Panics if the graph contains a cycle (it is not a DAG).
    pub fn topological_order(&self) -> Vec<VertexId> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.preds[v].len()).collect();
        let mut queue: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| indeg[v as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v);
            for &s in self.succs(v) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(order.len(), n, "cDAG contains a cycle");
        order
    }

    /// Minimum number `u` such that every non-input vertex has at least `u`
    /// direct predecessors that are graph inputs with out-degree one
    /// (the hypothesis of Lemma 6).
    pub fn min_outdegree_one_input_preds(&self) -> usize {
        let mut result = usize::MAX;
        for v in self.compute_vertices() {
            let u = self
                .preds(v)
                .iter()
                .filter(|&&p| self.preds(p).is_empty() && self.out_degree(p) == 1)
                .count();
            result = result.min(u);
        }
        if result == usize::MAX {
            0
        } else {
            result
        }
    }

    /// Find a vertex by its label (slow; for tests and small graphs).
    pub fn find(&self, label: &str) -> Option<VertexId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| i as VertexId)
    }
}

/// Helper for builders that need to track the *current version* vertex of
/// each logical array element.
#[derive(Clone, Debug, Default)]
pub struct VersionTracker {
    current: HashMap<(usize, usize), VertexId>,
}

impl VersionTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current vertex of element `(i, j)`.
    ///
    /// # Panics
    /// Panics if the element was never set.
    pub fn get(&self, i: usize, j: usize) -> VertexId {
        *self
            .current
            .get(&(i, j))
            .expect("element version queried before definition")
    }

    /// Register a new version vertex for `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: VertexId) {
        self.current.insert((i, j), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CDag {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = CDag::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        let c = g.add_vertex("c");
        let d = g.add_vertex("d");
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g
    }

    #[test]
    fn inputs_outputs_of_diamond() {
        let g = diamond();
        assert_eq!(g.inputs(), vec![0]);
        assert_eq!(g.outputs(), vec![3]);
        assert_eq!(g.compute_vertices(), vec![1, 2, 3]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        let pos: Vec<usize> = (0..4)
            .map(|v| order.iter().position(|&x| x == v as u32).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        let mut g = CDag::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        g.add_edge(a, b);
        g.add_edge(b, a);
        g.topological_order();
    }

    #[test]
    fn outdegree_one_input_counting() {
        // v has preds: x (input, outdeg 1) and y (input, outdeg 2 via w)
        let mut g = CDag::new();
        let x = g.add_vertex("x");
        let y = g.add_vertex("y");
        let v = g.add_vertex("v");
        let w = g.add_vertex("w");
        g.add_edge(x, v);
        g.add_edge(y, v);
        g.add_edge(y, w);
        assert_eq!(g.min_outdegree_one_input_preds(), 0); // w has zero such preds
        let mut g2 = CDag::new();
        let a = g2.add_vertex("a");
        let b = g2.add_vertex("b");
        let c = g2.add_vertex("c");
        g2.add_edge(a, c);
        g2.add_edge(b, c);
        assert_eq!(g2.min_outdegree_one_input_preds(), 2);
    }

    #[test]
    fn version_tracker_replaces() {
        let mut g = CDag::new();
        let v0 = g.add_vertex("A(0,0)#0");
        let v1 = g.add_vertex("A(0,0)#1");
        let mut t = VersionTracker::new();
        t.set(0, 0, v0);
        assert_eq!(t.get(0, 0), v0);
        t.set(0, 0, v1);
        assert_eq!(t.get(0, 0), v1);
    }

    #[test]
    fn find_by_label() {
        let g = diamond();
        assert_eq!(g.find("c"), Some(2));
        assert_eq!(g.find("zzz"), None);
    }
}
