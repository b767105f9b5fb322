//! X-partitions (Section 2.3.3): validation and greedy construction.
//!
//! An X-partition splits the computation into disjoint subcomputations with
//! (a) no cyclic dependencies between them and (b) dominator and minimum
//! sets of size at most `X`. Any I/O-optimal schedule induces one, which is
//! what turns pebbling arguments into lower bounds.

use crate::cdag::{CDag, VertexId};
use crate::dominator::{min_dominator_size, minimum_set};

/// A candidate X-partition: ordered subcomputations over a cDAG.
#[derive(Clone, Debug)]
pub struct XPartition {
    /// The subcomputations `V_1, ..., V_s` (compute vertices only).
    pub subsets: Vec<Vec<VertexId>>,
}

/// Why a candidate partition is not a valid X-partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A vertex appears in two subcomputations.
    NotDisjoint(VertexId),
    /// A compute vertex is missing from all subcomputations.
    NotCovering(VertexId),
    /// An input vertex appears in a subcomputation.
    ContainsInput(VertexId),
    /// The quotient graph of subcomputations has a cycle.
    CyclicDependency {
        /// Index of one subcomputation on the cycle.
        first: usize,
        /// Index of another subcomputation on the cycle.
        second: usize,
    },
    /// A dominator set exceeds `X`.
    DominatorTooLarge {
        /// Index of the offending subcomputation.
        subset: usize,
        /// Its minimum dominator size.
        size: usize,
    },
    /// A minimum set exceeds `X`.
    MinimumTooLarge {
        /// Index of the offending subcomputation.
        subset: usize,
        /// Its minimum-set size.
        size: usize,
    },
}

impl XPartition {
    /// Number of subcomputations `s`.
    pub fn len(&self) -> usize {
        self.subsets.len()
    }

    /// True iff the partition has no subcomputations.
    pub fn is_empty(&self) -> bool {
        self.subsets.is_empty()
    }

    /// Size of the largest subcomputation.
    pub fn v_max(&self) -> usize {
        self.subsets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Validate this partition as an X-partition of `g` for the given `x`.
    pub fn validate(&self, g: &CDag, x: usize) -> Result<(), PartitionError> {
        let n = g.len();
        let mut owner = vec![usize::MAX; n];
        for (idx, sub) in self.subsets.iter().enumerate() {
            for &v in sub {
                if g.preds(v).is_empty() {
                    return Err(PartitionError::ContainsInput(v));
                }
                if owner[v as usize] != usize::MAX {
                    return Err(PartitionError::NotDisjoint(v));
                }
                owner[v as usize] = idx;
            }
        }
        for v in g.compute_vertices() {
            if owner[v as usize] == usize::MAX {
                return Err(PartitionError::NotCovering(v));
            }
        }
        // acyclicity of the quotient graph
        let s = self.subsets.len();
        let mut qadj = vec![Vec::new(); s];
        let mut indeg = vec![0usize; s];
        let mut seen = std::collections::HashSet::new();
        for v in g.compute_vertices() {
            let ov = owner[v as usize];
            for &succ in g.succs(v) {
                let os = owner[succ as usize];
                if os != usize::MAX && os != ov && seen.insert((ov, os)) {
                    qadj[ov].push(os);
                    indeg[os] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..s).filter(|&i| indeg[i] == 0).collect();
        let mut popped = 0;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            popped += 1;
            for &w in &qadj[u] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if popped != s {
            // find two subsets with remaining in-degree for the report
            let cyclic: Vec<usize> = (0..s).filter(|&i| indeg[i] > 0).collect();
            return Err(PartitionError::CyclicDependency {
                first: cyclic[0],
                second: *cyclic.get(1).unwrap_or(&cyclic[0]),
            });
        }
        // dominator / minimum sizes
        for (idx, sub) in self.subsets.iter().enumerate() {
            let dom = min_dominator_size(g, sub);
            if dom > x {
                return Err(PartitionError::DominatorTooLarge {
                    subset: idx,
                    size: dom,
                });
            }
            let min = minimum_set(g, sub).len();
            if min > x {
                return Err(PartitionError::MinimumTooLarge {
                    subset: idx,
                    size: min,
                });
            }
        }
        Ok(())
    }
}

/// Build an X-partition greedily: walk a topological order and open a new
/// subcomputation whenever adding the next vertex would push the dominator
/// or minimum set above `x`.
pub fn greedy_partition(g: &CDag, x: usize) -> XPartition {
    let mut subsets: Vec<Vec<VertexId>> = Vec::new();
    let mut current: Vec<VertexId> = Vec::new();
    for v in g.topological_order() {
        if g.preds(v).is_empty() {
            continue;
        }
        current.push(v);
        // conservative check: recompute exact dominator/min sizes
        let dom = min_dominator_size(g, &current);
        let min = minimum_set(g, &current).len();
        if dom > x || min > x {
            current.pop();
            if !current.is_empty() {
                subsets.push(std::mem::take(&mut current));
            }
            current.push(v);
            // a single vertex can itself violate X if its in-degree > X;
            // the caller must choose X >= max in-degree.
            let dom1 = min_dominator_size(g, &current);
            assert!(
                dom1 <= x,
                "X={x} smaller than a single vertex dominator ({dom1})"
            );
        }
    }
    if !current.is_empty() {
        subsets.push(current);
    }
    XPartition { subsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{lu_cdag, mmm_cdag};

    #[test]
    fn greedy_partition_validates_on_mmm() {
        let g = mmm_cdag(3);
        for x in [4, 8, 16] {
            let p = greedy_partition(&g, x);
            p.validate(&g, x).unwrap();
            assert!(p.v_max() >= 1);
        }
    }

    #[test]
    fn greedy_partition_validates_on_lu() {
        let (g, _) = lu_cdag(4);
        let p = greedy_partition(&g, 8);
        p.validate(&g, 8).unwrap();
    }

    #[test]
    fn validation_catches_overlap() {
        let g = mmm_cdag(2);
        let v = g.compute_vertices();
        let p = XPartition {
            subsets: vec![v.clone(), vec![v[0]]],
        };
        assert_eq!(p.validate(&g, 100), Err(PartitionError::NotDisjoint(v[0])));
    }

    #[test]
    fn validation_catches_missing_vertex() {
        let g = mmm_cdag(2);
        let mut v = g.compute_vertices();
        let dropped = v.pop().unwrap();
        let p = XPartition { subsets: vec![v] };
        assert_eq!(
            p.validate(&g, 100),
            Err(PartitionError::NotCovering(dropped))
        );
    }

    #[test]
    fn validation_catches_input_in_subset() {
        let g = mmm_cdag(2);
        let mut v = g.compute_vertices();
        let input = g.inputs()[0];
        v.push(input);
        let p = XPartition { subsets: vec![v] };
        assert_eq!(
            p.validate(&g, 100),
            Err(PartitionError::ContainsInput(input))
        );
    }

    #[test]
    fn validation_catches_cycles() {
        // path a -> b -> c -> d (a input); put {b, d} and {c} in different
        // subsets: b before c, c before d => quotient cycle
        let mut g = CDag::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        let c = g.add_vertex("c");
        let d = g.add_vertex("d");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, d);
        let p = XPartition {
            subsets: vec![vec![b, d], vec![c]],
        };
        assert!(matches!(
            p.validate(&g, 100),
            Err(PartitionError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn validation_catches_dominator_overflow() {
        let g = mmm_cdag(3);
        let p = XPartition {
            subsets: vec![g.compute_vertices()],
        };
        // whole computation needs all 18 inputs; X=4 must fail
        assert!(matches!(
            p.validate(&g, 4),
            Err(PartitionError::DominatorTooLarge { .. })
        ));
    }
}
