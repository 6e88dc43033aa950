//! EM3D system generation: sub-bodies, E/H nodes and the bipartite
//! dependency graph.
//!
//! A deterministic, seeded generator builds systems shaped like the paper's
//! Figure 2: `p` sub-bodies with varying node counts, mostly-local
//! dependencies, and a small fraction of cross-body edges to the
//! neighbouring sub-bodies of a ring decomposition ("the nodes in each
//! subbody have few dependencies on the nodes residing in other subbodies").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A body's raw dependency rows: `(body, index, weight)` references.
type RawRows = Vec<Vec<(usize, usize, f64)>>;

/// A reference from a node to one of its bipartite neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// A node of the opposite kind in the same sub-body.
    Local(usize),
    /// A node of the opposite kind in another sub-body; `slot` indexes the
    /// ghost array received from that body (see [`SubBody::h_imports`]).
    Remote {
        /// Owning sub-body.
        body: usize,
        /// Index into the per-body import (ghost) array.
        slot: usize,
    },
}

/// One sub-body of the decomposed object.
#[derive(Debug, Clone, Default)]
pub struct SubBody {
    /// Electric field values, one per E node.
    pub e_values: Vec<f64>,
    /// Magnetic field values, one per H node.
    pub h_values: Vec<f64>,
    /// For each E node: weighted references to the H nodes it depends on.
    pub e_deps: Vec<Vec<(NodeRef, f64)>>,
    /// For each H node: weighted references to the E nodes it depends on.
    pub h_deps: Vec<Vec<(NodeRef, f64)>>,
    /// `h_exports[j]` = indices of this body's H nodes that body `j` needs
    /// (sorted; the position in this list is the receiver's ghost slot).
    pub h_exports: Vec<Vec<usize>>,
    /// `e_exports[j]` = indices of this body's E nodes that body `j` needs.
    pub e_exports: Vec<Vec<usize>>,
    /// `h_imports[j]` = how many H ghosts this body receives from body `j`.
    pub h_imports: Vec<usize>,
    /// `e_imports[j]` = how many E ghosts this body receives from body `j`.
    pub e_imports: Vec<usize>,
}

impl SubBody {
    /// Total number of nodes (E + H) — the paper's `d[i]`.
    pub fn node_count(&self) -> usize {
        self.e_values.len() + self.h_values.len()
    }
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct Em3dConfig {
    /// Nodes per sub-body (`d` in the model); length determines `p`.
    pub nodes_per_body: Vec<usize>,
    /// Bipartite degree of every node.
    pub degree: usize,
    /// Probability that a dependency crosses to a neighbouring sub-body.
    pub cross_fraction: f64,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl Em3dConfig {
    /// A conventional irregular configuration: `p` bodies whose sizes ramp
    /// from `base` to `base * spread` nodes.
    pub fn ramp(p: usize, base: usize, spread: f64, seed: u64) -> Self {
        assert!(p >= 1 && base >= 4);
        let nodes_per_body = (0..p)
            .map(|i| {
                let f = if p == 1 {
                    1.0
                } else {
                    1.0 + (spread - 1.0) * i as f64 / (p - 1) as f64
                };
                ((base as f64 * f) as usize).max(4)
            })
            .collect();
        Em3dConfig {
            nodes_per_body,
            degree: 4,
            cross_fraction: 0.08,
            seed,
        }
    }
}

/// The whole decomposed system, plus the `dep` matrix of the paper's model:
/// `dep[i][j]` = number of nodal values in sub-body `j` that sub-body `i`
/// needs per iteration.
#[derive(Debug, Clone)]
pub struct Em3dSystem {
    /// The sub-bodies.
    pub bodies: Vec<SubBody>,
    /// The dependency-volume matrix (`dep[i][j]`, nodal values).
    pub dep: Vec<Vec<usize>>,
}

impl Em3dSystem {
    /// Number of sub-bodies (`p`).
    pub fn p(&self) -> usize {
        self.bodies.len()
    }

    /// The paper's `d` vector: nodes per sub-body.
    pub fn d(&self) -> Vec<usize> {
        self.bodies.iter().map(SubBody::node_count).collect()
    }

    /// Generates a system deterministically from a configuration.
    pub fn generate(cfg: &Em3dConfig) -> Em3dSystem {
        let p = cfg.nodes_per_body.len();
        assert!(p >= 1, "need at least one sub-body");
        assert!(cfg.degree >= 1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Node counts per body: half E, half H (rounded).
        let e_counts: Vec<usize> = cfg.nodes_per_body.iter().map(|&d| d / 2).collect();
        let h_counts: Vec<usize> = cfg
            .nodes_per_body
            .iter()
            .zip(&e_counts)
            .map(|(&d, &e)| d - e)
            .collect();

        // Raw dependencies as (body, index, weight), built globally first:
        // one row of `degree` references into the other field per node.
        let mut e_deps_raw: Vec<RawRows> = Vec::with_capacity(p);
        let mut h_deps_raw: Vec<RawRows> = Vec::with_capacity(p);
        for body in 0..p {
            let mut rows = |nodes: usize, sources: &[usize]| -> RawRows {
                let mut reference = || {
                    let b = if p == 1 || rng.random_range(0.0..1.0) >= cfg.cross_fraction {
                        body
                    } else if rng.random_range(0..2) == 0 {
                        (body + 1) % p
                    } else {
                        (body + p - 1) % p
                    };
                    let idx = rng.random_range(0..sources[b].max(1));
                    (b, idx, rng.random_range(0.1..1.0))
                };
                (0..nodes)
                    .map(|_| (0..cfg.degree).map(|_| reference()).collect())
                    .collect()
            };
            e_deps_raw.push(rows(e_counts[body], &h_counts));
            h_deps_raw.push(rows(h_counts[body], &e_counts));
        }

        // Export lists: for each ordered pair (owner j -> consumer i), the
        // sorted set of j's node indices that i references.
        let exports = |deps_raw: &[RawRows]| {
            let mut table = vec![vec![Vec::<usize>::new(); p]; p]; // [owner][consumer]
            for (i, rows) in deps_raw.iter().enumerate() {
                for &(b, idx, _) in rows.iter().flatten() {
                    if b != i {
                        table[b][i].push(idx);
                    }
                }
            }
            for list in table.iter_mut().flatten() {
                list.sort_unstable();
                list.dedup();
            }
            table
        };
        let h_exports = exports(&e_deps_raw);
        let e_exports = exports(&h_deps_raw);

        // Assemble the bodies, rewriting raw deps into NodeRefs with ghost
        // slots, and initialising field values deterministically.
        let mut bodies = Vec::with_capacity(p);
        for i in 0..p {
            let resolve = |raw: &RawRows, exports: &[Vec<Vec<usize>>]| {
                let reference = |&(b, idx, w): &(usize, usize, f64)| {
                    if b == i {
                        return (NodeRef::Local(idx), w);
                    }
                    let slot = exports[b][i]
                        .binary_search(&idx)
                        .expect("export lists cover every remote reference");
                    (NodeRef::Remote { body: b, slot }, w)
                };
                raw.iter()
                    .map(|row| row.iter().map(reference).collect())
                    .collect()
            };
            let e_values = (0..e_counts[i])
                .map(|n| ((i * 131 + n * 17) % 997) as f64 / 997.0)
                .collect();
            let h_values = (0..h_counts[i])
                .map(|n| ((i * 257 + n * 29) % 991) as f64 / 991.0)
                .collect();

            bodies.push(SubBody {
                e_values,
                h_values,
                e_deps: resolve(&e_deps_raw[i], &h_exports),
                h_deps: resolve(&h_deps_raw[i], &e_exports),
                h_exports: h_exports[i].clone(),
                e_exports: e_exports[i].clone(),
                h_imports: (0..p).map(|j| h_exports[j][i].len()).collect(),
                e_imports: (0..p).map(|j| e_exports[j][i].len()).collect(),
            });
        }

        // dep[i][j]: nodal values of body j needed by body i (H + E ghosts;
        // a body imports nothing from itself).
        let dep = bodies
            .iter()
            .map(|b| (0..p).map(|j| b.h_imports[j] + b.e_imports[j]).collect())
            .collect();

        Em3dSystem { bodies, dep }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> Em3dSystem {
        Em3dSystem::generate(&Em3dConfig::ramp(4, 40, 3.0, 7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = system();
        let b = system();
        assert_eq!(a.dep, b.dep);
        assert_eq!(a.bodies[2].e_values, b.bodies[2].e_values);
    }

    #[test]
    fn node_counts_match_config() {
        let s = system();
        let d = s.d();
        assert_eq!(d.len(), 4);
        assert_eq!(d[0], 40);
        assert!(d[3] >= 115 && d[3] <= 120); // 40 * 3.0 with rounding
    }

    #[test]
    fn ring_decomposition_limits_dependencies() {
        let s = Em3dSystem::generate(&Em3dConfig::ramp(6, 40, 2.0, 3));
        for i in 0..6 {
            for j in 0..6 {
                let ring_dist = (i as isize - j as isize).rem_euclid(6).min(
                    (j as isize - i as isize).rem_euclid(6),
                );
                if ring_dist > 1 {
                    assert_eq!(s.dep[i][j], 0, "non-neighbours {i},{j} must not depend");
                }
            }
        }
    }

    #[test]
    fn exports_and_imports_are_consistent() {
        let s = system();
        for i in 0..s.p() {
            for j in 0..s.p() {
                assert_eq!(
                    s.bodies[i].h_imports[j],
                    s.bodies[j].h_exports[i].len(),
                    "H ghosts {j}->{i}"
                );
                assert_eq!(
                    s.bodies[i].e_imports[j],
                    s.bodies[j].e_exports[i].len(),
                    "E ghosts {j}->{i}"
                );
            }
        }
    }

    #[test]
    fn remote_refs_point_at_valid_ghost_slots() {
        let s = system();
        for (i, body) in s.bodies.iter().enumerate() {
            for row in &body.e_deps {
                for &(r, w) in row {
                    assert!(w > 0.0);
                    if let NodeRef::Remote { body: b, slot } = r {
                        assert_ne!(b, i);
                        assert!(slot < body.h_imports[b], "slot within import count");
                    }
                }
            }
        }
    }

    #[test]
    fn dep_matrix_diag_is_zero() {
        let s = system();
        for i in 0..s.p() {
            assert_eq!(s.dep[i][i], 0);
        }
    }

    #[test]
    fn single_body_has_no_remote_deps() {
        let s = Em3dSystem::generate(&Em3dConfig::ramp(1, 40, 1.0, 9));
        assert_eq!(s.dep, vec![vec![0]]);
        for row in &s.bodies[0].e_deps {
            for (r, _) in row {
                assert!(matches!(r, NodeRef::Local(_)));
            }
        }
    }
}
