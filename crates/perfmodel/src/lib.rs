//! # perfmodel — HMPI's performance-model definition language
//!
//! HMPI "provides a small and dedicated model definition language for
//! specifying this performance model. This language uses most of the features
//! in the specification of network types of the mpC language. A compiler
//! compiles the description of this performance model to generate a set of
//! functions. The functions make up an algorithm-specific part of the HMPI
//! runtime system."
//!
//! This crate is that pipeline, reimplemented in Rust:
//!
//! * [`parse_program`] — turns model source (the paper's Figures 4 and 7
//!   parse verbatim) into an [`ast`];
//! * [`CompiledModel`] — the "set of functions": bind parameters with
//!   [`CompiledModel::instantiate`] to obtain a [`ModelInstance`] exposing
//!   per-processor computation volumes ([`PerformanceModel::volumes`]),
//!   pairwise communication volumes ([`PerformanceModel::comm_bytes`]), the
//!   parent, and a replayable interaction pattern
//!   ([`PerformanceModel::run_scheme`]);
//! * parse, lower, run: [`CompiledModel::compile`] lowers the algorithm
//!   once to slots of one flat frame, and `instantiate` and `run_scheme`
//!   walk that lowered form. Replaying a scheme emits its activities
//!   (`e %% [i]` computations and `e %% [i] -> [j]` transfers) to a
//!   [`SchemeSink`]; `par` algorithmic patterns fork virtual time;
//! * [`analyze`] — the model linter: does the scheme perform every volume
//!   the `node` and `link` sections declare? [`pretty`] prints a syntax
//!   tree back to source; simcheck holds every model it fuzzes to both;
//! * [`CostProgram`] — the model pricer, the engine behind `HMPI_Timeof`
//!   and `HMPI_Group_create`: a model's (assignment-independent) event
//!   stream recorded once into a flat program and priced per mapping
//!   against per-processor speeds and link costs ([`PairCost`]); a
//!   selection search prices each candidate mapping with one full run.
//!   [`PerformanceModel::predict_time`] is its one-shot form;
//! * [`collective`] — collective schedules and their contention-aware
//!   pricer.
//!
//! ## Language semantics notes
//!
//! The paper's language is C-flavoured. Two deliberate choices where the
//! paper is silent:
//!
//! 1. **Index/control expressions** (array subscripts, loop bounds, guards)
//!    evaluate in 64-bit integers with C truncating division — `k%l`, `n/l`
//!    behave as a C programmer expects.
//! 2. **Volume and percentage expressions** (the argument of `bench*(...)`,
//!    `length*(...)` and the expression before `%%`) evaluate in `f64` with
//!    true division: the paper writes `(100/n)%%[...]`, which under integer
//!    division would be zero for `n > 100` and make every step free.
//!
//! As in C, names resolve and kinds check when the model is compiled: an
//! undefined name or field, an array or struct used as an integer, an
//! assignment that changes a variable's kind, a call to any extern function
//! but `GetProcessor`, or an activity with the wrong number of coordinates
//! is a [`ParseError`] from `compile`, in taken and untaken branches alike.
//! So is a declaration that is the whole body of an `if`, `for` or `par`
//! (it would declare its name only when the branch runs), and so is source
//! nested deeper than 128 levels. What is left for run time is what
//! depends on parameter values: each [`EvalError`].

#![warn(missing_docs)]

mod analysis;
pub mod ast;
pub mod collective;
mod compile;
mod error;
mod eval;
mod hier;
mod lexer;
mod model;
mod parser;
pub mod pretty;
mod scheme;
mod value;

pub use analysis::{analyze, CoverageSink, Finding, ModelReport};
pub use collective::{
    algos_for, chunk_bounds, eligible, price, schedule, select, CollectiveAlgo, CollectiveKind,
    LinkSharing, Payload, Xfer,
};
pub use compile::{CostModel, CostProgram, PairCost, PriceScratch};
pub use hier::{plan as hier_plan, HierPlan, RankTopology};
pub use error::{EvalError, ParseError};
pub use model::{CompiledModel, ModelInstance, ParamValue, PerformanceModel};
pub use parser::parse_program;
pub use scheme::{RecordingSink, SchemeEvent, SchemeSink};
