//! Typed builder front-end.
//!
//! Rust applications that don't want to ship model *source text* can
//! assemble the same artefact programmatically: a [`ModelBuilder`] produces
//! a [`BuiltModel`] implementing [`PerformanceModel`], interchangeable with
//! a parsed [`crate::CompiledModel`] instance everywhere the HMPI runtime
//! accepts a model.

use crate::error::EvalError;
use crate::model::PerformanceModel;
use crate::scheme::SchemeSink;
use std::sync::Arc;

type SchemeFn = Arc<dyn Fn(&mut dyn SchemeSink) + Send + Sync>;

/// Builds a [`BuiltModel`] step by step.
///
/// ```
/// use perfmodel::{ModelBuilder, PerformanceModel};
///
/// let model = ModelBuilder::new("ring")
///     .processors(4)
///     .volumes(vec![10.0, 20.0, 30.0, 40.0])
///     .comm_fn(|s, d| if (s + 1) % 4 == d { 1024.0 } else { 0.0 })
///     .parent(0)
///     .build()
///     .unwrap();
/// assert_eq!(model.num_processors(), 4);
/// assert_eq!(model.comm_bytes()[3][0], 1024.0);
/// ```
#[derive(Clone)]
pub struct ModelBuilder {
    name: String,
    extents: Vec<usize>,
    volumes: Option<Vec<f64>>,
    comm: Option<Vec<Vec<f64>>>,
    parent: usize,
    scheme: Option<SchemeFn>,
}

impl std::fmt::Debug for ModelBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBuilder")
            .field("name", &self.name)
            .field("extents", &self.extents)
            .field("has_scheme", &self.scheme.is_some())
            .finish()
    }
}

impl ModelBuilder {
    /// Starts a builder for a model with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ModelBuilder {
            name: name.into(),
            extents: Vec::new(),
            volumes: None,
            comm: None,
            parent: 0,
            scheme: None,
        }
    }

    /// A linear arrangement of `p` abstract processors (`coord I=p`).
    pub fn processors(mut self, p: usize) -> Self {
        self.extents = vec![p];
        self
    }

    /// A multi-dimensional arrangement (`coord I=m, J=m` is `grid([m, m])`).
    pub fn grid(mut self, extents: &[usize]) -> Self {
        self.extents = extents.to_vec();
        self
    }

    /// Per-processor computation volumes in benchmark units, by vector.
    pub fn volumes(mut self, v: Vec<f64>) -> Self {
        self.volumes = Some(v);
        self
    }

    /// Pairwise communication volumes (bytes), by matrix.
    pub fn comm(mut self, m: Vec<Vec<f64>>) -> Self {
        self.comm = Some(m);
        self
    }

    /// Pairwise communication volumes by function of `(src, dst)` linear
    /// indices.
    pub fn comm_fn(mut self, f: impl Fn(usize, usize) -> f64) -> Self {
        let n: usize = self.extents.iter().product();
        self.comm = Some(
            (0..n)
                .map(|s| (0..n).map(|d| if s == d { 0.0 } else { f(s, d) }).collect())
                .collect(),
        );
        self
    }

    /// The parent's linear index (defaults to 0).
    pub fn parent(mut self, p: usize) -> Self {
        self.parent = p;
        self
    }

    /// The interaction scheme, as a closure emitting activities. If omitted,
    /// the default bulk-synchronous pattern is used (all transfers in
    /// parallel, then all computations in parallel).
    pub fn scheme(mut self, f: impl Fn(&mut dyn SchemeSink) + Send + Sync + 'static) -> Self {
        self.scheme = Some(Arc::new(f));
        self
    }

    /// Draws an arbitrary valid model with `1..=max_p` abstract processors:
    /// random volumes, a random-density communication matrix, a random
    /// parent, and — half the time — a random explicit interaction scheme
    /// mixing serial activities with `par` blocks. The same
    /// `(seed, max_p)` always produces the identical model; this is the
    /// scheme generator backing the scenario fuzzer.
    ///
    /// # Panics
    /// Panics if `max_p == 0`.
    pub fn random(seed: u64, max_p: usize) -> BuiltModel {
        use rand::{Rng, SeedableRng, StdRng};
        assert!(max_p > 0, "need room for at least one processor");
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.random_range(0..max_p) + 1;
        let volumes: Vec<f64> = (0..p).map(|_| rng.random_range(1.0..100.0)).collect();
        let density = rng.random_range(0.0..1.0);
        let comm: Vec<Vec<f64>> = (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s != d && rng.random_range(0.0..1.0) < density {
                            rng.random_range(64.0..65536.0)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let mut b = ModelBuilder::new(format!("random-{seed:#x}"))
            .processors(p)
            .volumes(volumes)
            .comm(comm)
            .parent(rng.random_range(0..p));
        if rng.random_range(0u32..2) == 0 {
            // An explicit scheme, precomputed as an op list so the replaying
            // closure stays `Fn` (no RNG state mutated at run time).
            #[derive(Clone)]
            enum Op {
                Compute(usize, f64),
                Transfer(usize, usize, f64),
                ParBegin,
                ParBranch,
                ParEnd,
            }
            let activity = |rng: &mut StdRng, ops: &mut Vec<Op>| {
                if p >= 2 && rng.random_range(0u32..2) == 0 {
                    let src = rng.random_range(0..p);
                    let mut dst = rng.random_range(0..p);
                    while dst == src {
                        dst = rng.random_range(0..p);
                    }
                    ops.push(Op::Transfer(src, dst, rng.random_range(1.0..100.0)));
                } else {
                    ops.push(Op::Compute(
                        rng.random_range(0..p),
                        rng.random_range(1.0..100.0),
                    ));
                }
            };
            let mut ops = Vec::new();
            for _ in 0..rng.random_range(1..4) {
                if rng.random_range(0u32..2) == 0 {
                    for _ in 0..rng.random_range(1..4) {
                        activity(&mut rng, &mut ops);
                    }
                } else {
                    ops.push(Op::ParBegin);
                    for _ in 0..rng.random_range(1..4) {
                        activity(&mut rng, &mut ops);
                        ops.push(Op::ParBranch);
                    }
                    ops.push(Op::ParEnd);
                }
            }
            b = b.scheme(move |sink| {
                for op in &ops {
                    match *op {
                        Op::Compute(proc, pct) => sink.compute(proc, pct),
                        Op::Transfer(src, dst, pct) => sink.transfer(src, dst, pct),
                        Op::ParBegin => sink.par_begin(),
                        Op::ParBranch => sink.par_branch(),
                        Op::ParEnd => sink.par_end(),
                    }
                }
            });
        }
        b.build().expect("generator always satisfies build validation")
    }

    /// Validates and builds.
    ///
    /// # Errors
    /// [`EvalError::BadParameters`] on missing extents or shape mismatches.
    pub fn build(self) -> Result<BuiltModel, EvalError> {
        if self.extents.is_empty() || self.extents.contains(&0) {
            return Err(EvalError::BadParameters(
                "model needs a non-empty processor arrangement".into(),
            ));
        }
        let n: usize = self.extents.iter().product();
        let volumes = self.volumes.unwrap_or_else(|| vec![1.0; n]);
        if volumes.len() != n {
            return Err(EvalError::BadParameters(format!(
                "{} volumes for {} processors",
                volumes.len(),
                n
            )));
        }
        if volumes.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(EvalError::BadParameters(
                "volumes must be finite and non-negative".into(),
            ));
        }
        let comm = self.comm.unwrap_or_else(|| vec![vec![0.0; n]; n]);
        if comm.len() != n || comm.iter().any(|row| row.len() != n) {
            return Err(EvalError::BadParameters(format!(
                "communication matrix must be {n} x {n}"
            )));
        }
        if self.parent >= n {
            return Err(EvalError::BadParameters(format!(
                "parent {} outside 0..{n}",
                self.parent
            )));
        }
        Ok(BuiltModel {
            name: self.name,
            extents: self.extents,
            volumes,
            comm,
            parent: self.parent,
            scheme: self.scheme,
        })
    }
}

/// A performance model assembled with [`ModelBuilder`].
#[derive(Clone)]
pub struct BuiltModel {
    name: String,
    extents: Vec<usize>,
    volumes: Vec<f64>,
    comm: Vec<Vec<f64>>,
    parent: usize,
    scheme: Option<SchemeFn>,
}

impl std::fmt::Debug for BuiltModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltModel")
            .field("name", &self.name)
            .field("extents", &self.extents)
            .field("parent", &self.parent)
            .finish()
    }
}

impl BuiltModel {
    /// The coordinate extents.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }
}

impl PerformanceModel for BuiltModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_processors(&self) -> usize {
        self.volumes.len()
    }

    fn volumes(&self) -> &[f64] {
        &self.volumes
    }

    fn comm_bytes(&self) -> &[Vec<f64>] {
        &self.comm
    }

    fn parent(&self) -> usize {
        self.parent
    }

    fn run_scheme(&self, sink: &mut dyn SchemeSink) -> Result<(), EvalError> {
        match &self.scheme {
            Some(f) => {
                f(sink);
                Ok(())
            }
            None => {
                sink.par_begin();
                for s in 0..self.num_processors() {
                    for d in 0..self.num_processors() {
                        if s != d && self.comm[s][d] > 0.0 {
                            sink.transfer(s, d, 100.0);
                        }
                    }
                    sink.par_branch();
                }
                sink.par_end();
                sink.par_begin();
                for p in 0..self.num_processors() {
                    sink.compute(p, 100.0);
                    sink.par_branch();
                }
                sink.par_end();
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CostModel;
    use crate::scheme::{RecordingSink, SchemeEvent};

    #[test]
    fn builder_defaults() {
        let m = ModelBuilder::new("t").processors(3).build().unwrap();
        assert_eq!(m.num_processors(), 3);
        assert_eq!(m.volumes(), &[1.0, 1.0, 1.0]);
        assert_eq!(m.parent(), 0);
    }

    #[test]
    fn builder_validation() {
        assert!(ModelBuilder::new("t").build().is_err()); // no extents
        assert!(ModelBuilder::new("t")
            .processors(2)
            .volumes(vec![1.0])
            .build()
            .is_err());
        assert!(ModelBuilder::new("t")
            .processors(2)
            .parent(5)
            .build()
            .is_err());
        assert!(ModelBuilder::new("t")
            .processors(2)
            .volumes(vec![f64::NAN, 1.0])
            .build()
            .is_err());
    }

    #[test]
    fn comm_fn_zeroes_diagonal() {
        let m = ModelBuilder::new("t")
            .processors(3)
            .comm_fn(|_, _| 100.0)
            .build()
            .unwrap();
        assert_eq!(m.comm_bytes()[1][1], 0.0);
        assert_eq!(m.comm_bytes()[0][2], 100.0);
    }

    #[test]
    fn custom_scheme_is_replayed() {
        let m = ModelBuilder::new("t")
            .processors(2)
            .volumes(vec![10.0, 10.0])
            .scheme(|sink| {
                sink.compute(0, 50.0);
                sink.compute(1, 100.0);
            })
            .build()
            .unwrap();
        let mut rec = RecordingSink::default();
        m.run_scheme(&mut rec).unwrap();
        assert_eq!(
            rec.events,
            vec![
                SchemeEvent::Compute {
                    proc: 0,
                    percent: 50.0
                },
                SchemeEvent::Compute {
                    proc: 1,
                    percent: 100.0
                }
            ]
        );
    }

    #[test]
    fn predict_time_via_trait_default() {
        let m = ModelBuilder::new("t")
            .processors(2)
            .volumes(vec![30.0, 60.0])
            .build()
            .unwrap();
        let t = m.predict_time(&CostModel::homogeneous(2, 30.0, 0.0, 1e9)).unwrap();
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn random_model_is_deterministic_and_evaluable() {
        for seed in 0..40u64 {
            let a = ModelBuilder::random(seed, 8);
            let b = ModelBuilder::random(seed, 8);
            assert_eq!(a.num_processors(), b.num_processors());
            assert_eq!(a.volumes(), b.volumes());
            assert_eq!(a.comm_bytes(), b.comm_bytes());
            assert!((1..=8).contains(&a.num_processors()));
            assert!(a.parent() < a.num_processors());
            let cost = CostModel::homogeneous(a.num_processors(), 50.0, 1e-4, 1e8);
            let (ta, tb) = (a.predict_time(&cost).unwrap(), b.predict_time(&cost).unwrap());
            assert!(ta.is_finite() && ta >= 0.0, "seed {seed} predicted {ta}");
            assert_eq!(ta, tb, "seed {seed} prediction not reproducible");
        }
    }

    #[test]
    fn grid_extents() {
        let m = ModelBuilder::new("g").grid(&[2, 3]).build().unwrap();
        assert_eq!(m.num_processors(), 6);
        assert_eq!(m.extents(), &[2, 3]);
    }
}
