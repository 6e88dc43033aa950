//! Option builders for the consolidated HMPI surface.
//!
//! `HMPI_Group_create` and `HMPI_Recon` each take one value: a bare model
//! or unit count for the common case, or a builder for the rest.
//!
//! ```text
//! h.group_create(&model)?;
//! h.group_create(GroupSpec::new(&model).placement(parent_world))?;
//!
//! h.recon(10.0)?;
//! h.recon_opts(Recon::new(10.0).work_units(640.0))?;
//! h.recon_opts(Recon::new(10.0).bench(|h| h.compute(10.0)))?;
//! ```
//!
//! The selection algorithm is the runtime's, set once in
//! [`crate::RuntimeConfig::mapping_algorithm`].

use crate::runtime::Hmpi;
use std::fmt;

/// Everything `HMPI_Group_create` can be asked to do, in one value.
///
/// Construct with [`GroupSpec::new`] and set the parent placement, or pass
/// a bare model reference: the `From<&M>` conversion builds the
/// all-defaults spec (`h.group_create(&model)`).
#[derive(Clone, Copy)]
pub struct GroupSpec<'m> {
    pub(crate) model: &'m dyn perfmodel::PerformanceModel,
    pub(crate) parent_world: usize,
}

impl<'m> GroupSpec<'m> {
    /// A spec with the host (world rank 0) as the parent.
    pub fn new(model: &'m dyn perfmodel::PerformanceModel) -> Self {
        GroupSpec {
            model,
            parent_world: 0,
        }
    }

    /// Anchors the group at an arbitrary *parent* process (the paper's
    /// general form: "every newly created group has exactly one process
    /// shared with already existing groups"). The model's `parent` abstract
    /// processor is pinned to this world rank. Defaults to the host.
    pub fn placement(mut self, parent_world: usize) -> Self {
        self.parent_world = parent_world;
        self
    }
}

impl fmt::Debug for GroupSpec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupSpec")
            .field("parent_world", &self.parent_world)
            .finish_non_exhaustive()
    }
}

impl<'m, M: perfmodel::PerformanceModel> From<&'m M> for GroupSpec<'m> {
    fn from(model: &'m M) -> Self {
        GroupSpec::new(model)
    }
}

impl<'m> From<&'m dyn perfmodel::PerformanceModel> for GroupSpec<'m> {
    fn from(model: &'m dyn perfmodel::PerformanceModel) -> Self {
        GroupSpec::new(model)
    }
}

/// The type standing in for "no custom benchmark body" in [`Recon`]'s
/// default type parameter. Never called; it only gives the bench-less
/// builder chain a concrete `F`.
pub type DefaultBench = fn(&Hmpi);

/// Everything `HMPI_Recon` can be asked to do, in one value; executed by
/// [`Hmpi::recon_opts`].
///
/// Defaults reproduce `h.recon(units)`: the benchmark performs
/// `nominal_units` of raw computation, and the fault-tolerant
/// point-to-point protocol is used exactly when the cluster has a fault
/// plan.
pub struct Recon<F = DefaultBench> {
    pub(crate) nominal_units: f64,
    pub(crate) work_units: Option<f64>,
    pub(crate) bench: Option<F>,
    pub(crate) fault_tolerant: Option<bool>,
}

impl Recon {
    /// A recon whose recorded speeds are `nominal_units / elapsed`.
    pub fn new(nominal_units: f64) -> Recon {
        Recon {
            nominal_units,
            work_units: None,
            bench: None,
            fault_tolerant: None,
        }
    }
}

impl<F> Recon<F> {
    /// Decouples the raw computation volume from the nominal one: the
    /// benchmark performs `units` of computation but speeds are still
    /// recorded as `nominal_units / elapsed`, so applications whose
    /// performance models count in coarser units (e.g. EM3D's "k nodal
    /// values") keep their unit system. Defaults to `nominal_units`.
    pub fn work_units(mut self, units: f64) -> Self {
        self.work_units = Some(units);
        self
    }

    /// Forces the fault-tolerant point-to-point protocol on (`true`) or the
    /// classic collective path (`false`). Default: fault-tolerant exactly
    /// when the cluster has a fault plan.
    pub fn fault_tolerant(mut self, on: bool) -> Self {
        self.fault_tolerant = Some(on);
        self
    }

    /// Supplies a caller-defined benchmark body (e.g. the application's
    /// serial kernel) instead of `work_units` of raw computation; its
    /// elapsed virtual time yields the speed estimate. On the
    /// fault-tolerant path the body should use [`Hmpi::try_compute`] so a
    /// mid-benchmark crash unwinds instead of panicking.
    pub fn bench<G>(self, f: G) -> Recon<G> {
        Recon {
            nominal_units: self.nominal_units,
            work_units: self.work_units,
            bench: Some(f),
            fault_tolerant: self.fault_tolerant,
        }
    }
}

impl<F> fmt::Debug for Recon<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recon")
            .field("nominal_units", &self.nominal_units)
            .field("work_units", &self.work_units)
            .field("bench", &self.bench.as_ref().map(|_| ".."))
            .field("fault_tolerant", &self.fault_tolerant)
            .finish()
    }
}
