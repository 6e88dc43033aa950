//! The paper's evaluation (Section 5) as one bench (`figures -- paper`,
//! `BENCH_paper.json`): Figures 9–11 and the n-body extension, each row
//! carrying the `HMPI_Timeof` prediction next to the measured time.
//!
//! * `fig9` — EM3D, HMPI vs MPI across problem sizes (`fig9.rs`). Paper:
//!   HMPI is "almost 1.5 times faster".
//! * `fig10` — MM (r = 8, n = 18 blocks) against the generalised block size
//!   `l`, every `l` in `m..=n` (`fig10.rs`). The summary puts the `l` the
//!   Figure 8 `HMPI_Timeof` sweep chooses next to the measured best.
//! * `fig11` — MM across matrix sizes, HMPI (heterogeneous distribution,
//!   Timeof-chosen `l`) vs MPI (homogeneous 2D block-cyclic) (`fig11.rs`).
//!   Paper: HMPI is "almost 3 times faster".
//! * `nbody` — beyond the paper: an allgather-per-step workload, to show the
//!   selection machinery generalises to a collective-heavy shape
//!   (`extension.rs`).
//!
//! Each of those modules runs one figure's points; this one turns them into
//! the report and its gates. Every number is virtual time, so the file has one size and is its own
//! baseline. The gates are the paper's sentences and the model's accuracy
//! where the model is exact. Absolute times are virtual seconds on the
//! paper's 9-workstation LAN model, not the paper's wall-clock seconds; the
//! shapes are the reproduction target.

use crate::report::{Fields, Report, Value};
use crate::{extension, fig10, fig11, fig9};

/// Sub-bodies, body groups and grid cells: one per machine of the paper LAN.
pub(crate) const P: usize = 9;

/// MM process grid side (3 × 3).
pub(crate) const M: usize = 3;

/// Recon benchmark size (the EM3D and n-body models' `k`).
pub(crate) const K: usize = 10;

/// Largest |prediction error| gated where the model is exact, percent.
const EXACT_PCT: f64 = 0.1;

/// One HMPI-vs-MPI point; `predicted` covers the whole HMPI run.
pub(crate) struct Point {
    pub(crate) x: usize,
    pub(crate) mpi: f64,
    pub(crate) hmpi: f64,
    pub(crate) predicted: f64,
}

impl Point {
    pub(crate) fn speedup(&self) -> f64 {
        self.mpi / self.hmpi
    }

    /// Signed prediction error, percent of measured (positive: over).
    fn error_pct(&self) -> f64 {
        (self.predicted - self.hmpi) / self.hmpi * 100.0
    }

    fn row(&self, x: &'static str) -> Fields {
        vec![
            (x, self.x.into()),
            ("mpi_s", Value::Fixed(self.mpi, 4)),
            ("hmpi_s", Value::Fixed(self.hmpi, 4)),
            ("speedup", Value::Fixed(self.speedup(), 3)),
            ("predicted_s", Value::Fixed(self.predicted, 4)),
            ("error_pct", Value::Fixed(self.error_pct(), 3)),
        ]
    }
}

/// The smallest and largest speedup of `points`.
fn speedups(points: &[Point]) -> (f64, f64) {
    let fold = |(lo, hi): (f64, f64), p: &Point| (lo.min(p.speedup()), hi.max(p.speedup()));
    points.iter().fold((f64::INFINITY, 0.0), fold)
}

/// The largest |error| of `points`.
fn worst_error<'a>(points: impl IntoIterator<Item = &'a Point>) -> f64 {
    (points.into_iter()).fold(0.0, |worst, p| f64::max(worst, p.error_pct().abs()))
}

/// The `paper` bench.
pub fn run() -> Report {
    let mut r = Report::new(
        "paper",
        "The paper's evaluation: Figures 9-11 and the n-body extension, \
         HMPI vs MPI with the HMPI_Timeof prediction (9-machine paper LAN)",
    );

    let fig9 = fig9::SIZES.map(fig9::point);
    let (lo, hi) = speedups(&fig9);
    let claim = format!("fig9: EM3D speedup {lo:.3}-{hi:.3} within [1.4, 1.6] at every size");
    r.gate(lo >= 1.4 && hi <= 1.6, claim);
    let err = worst_error(&fig9);
    let claim = format!("fig9: |prediction error| {err:.3}% < {EXACT_PCT}% at every size");
    r.gate(err < EXACT_PCT, claim);

    let n = fig10::N;
    let (fig10, timeof_l) = (fig10::series(n), fig10::timeof_choice(n));
    let best = (fig10.iter())
        .min_by(|a, b| a.hmpi.total_cmp(&b.hmpi))
        .expect("m..=n is not empty");
    let closest = (fig10.iter())
        .min_by(|a, b| (a.mpi - a.hmpi).total_cmp(&(b.mpi - b.hmpi)))
        .expect("m..=n is not empty");
    let claim = format!(
        "fig10: HMPI <= MPI at every l (closest: l = {}, {:.4} vs {:.4} s)",
        closest.x, closest.hmpi, closest.mpi
    );
    r.gate(fig10.iter().all(|p| p.hmpi <= p.mpi), claim);
    let claim = format!(
        "fig10: measured-best l = {} is interior to {M}..={n}",
        best.x
    );
    r.gate(M < best.x && best.x < n, claim);
    let err = worst_error(fig10.iter().filter(|p| n.is_multiple_of(p.x)));
    let claim = format!("fig10: |prediction error| {err:.3}% < {EXACT_PCT}% at every l dividing n");
    r.gate(err < EXACT_PCT, claim);

    let fig11 = fig11::NS.map(fig11::point);
    let (lo, _) = speedups(&fig11);
    let claim = format!("fig11: MM speedup >= 2.9 at every size (min {lo:.3})");
    r.gate(lo >= 2.9, claim);

    let nbody = extension::SIZES.map(extension::point);
    let (lo, _) = speedups(&nbody);
    let claim = format!("nbody: speedup > 1.3 at every size (min {lo:.3})");
    r.gate(lo > 1.3, claim);

    let timeof_s = fig10[timeof_l - M].hmpi;
    let regret_pct = (timeof_s / best.hmpi - 1.0) * 100.0;
    r.summary = vec![
        ("timeof_l", timeof_l.into()),
        ("timeof_s", Value::Fixed(timeof_s, 4)),
        ("best_l", best.x.into()),
        ("best_s", Value::Fixed(best.hmpi, 4)),
        ("timeof_regret_pct", Value::Fixed(regret_pct, 3)),
    ];
    let rows = |points: &[Point], x| points.iter().map(|p| p.row(x)).collect();
    r.tables = vec![
        ("fig9", rows(&fig9, "total_nodes")),
        ("fig10", rows(&fig10, "l")),
        ("fig11", rows(&fig11, "matrix_size")),
        ("nbody", rows(&nbody, "total_bodies")),
    ];
    r
}
