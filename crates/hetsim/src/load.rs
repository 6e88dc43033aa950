//! External-load models.
//!
//! The paper's third HNOC challenge is the "multi-user decentralized computer
//! system": workstations are shared, so the speed a parallel application
//! observes varies over time as other users' jobs come and go. A
//! [`LoadModel`] describes that variation as a deterministic function of
//! virtual time; [`crate::Processor::speed_at`] folds it into the delivered
//! speed. `HMPI_Recon` exists precisely to re-measure speeds when the load
//! changes.

use crate::clock::SimTime;

/// A deterministic model of external (non-application) load on a processor,
/// expressed as the *fraction of the processor stolen* at a given virtual
/// time. `0.0` means the processor is fully available, `0.9` means only 10 %
/// of its base speed is delivered to the application.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum LoadModel {
    /// No external load: the processor always delivers its base speed.
    #[default]
    None,
    /// A constant background load stealing the given fraction.
    Constant {
        /// Stolen fraction in `[0, 1)`.
        fraction: f64,
    },
    /// A load that switches on at `start` and off at `end` (a user logging in
    /// and running a job for a while).
    Step {
        /// When the external job starts.
        start: SimTime,
        /// When the external job ends.
        end: SimTime,
        /// Stolen fraction in `[0, 1)` while the job runs.
        fraction: f64,
    },
    /// A periodically oscillating load (daily usage patterns compressed to
    /// simulation scale): `fraction(t) = base + amplitude * sin(2πt/period)`,
    /// clamped to `[0, max)`.
    Sinusoid {
        /// Mean stolen fraction.
        base: f64,
        /// Oscillation amplitude.
        amplitude: f64,
        /// Oscillation period in virtual seconds.
        period: SimTime,
    },
    /// A piecewise-constant trace: `(since, fraction)` pairs sorted by time.
    /// The fraction in force at time `t` is the one with the greatest
    /// `since <= t` (0.0 before the first entry).
    Trace {
        /// Sorted `(since, stolen fraction)` change points.
        points: Vec<(SimTime, f64)>,
    },
    /// A deterministic bounded random walk: every `interval` the stolen
    /// fraction moves by `±step` (direction drawn from a seeded hash of the
    /// step index), reflecting at 0 and `max`. Models bursty multi-user
    /// behaviour while staying fully reproducible.
    RandomWalk {
        /// RNG seed; equal seeds give equal walks.
        seed: u64,
        /// Time between moves.
        interval: SimTime,
        /// Magnitude of each move.
        step: f64,
        /// Upper bound on the stolen fraction (`<= MAX_STOLEN`).
        max: f64,
    },
}

/// A small, fast, deterministic hash (splitmix64) used by
/// [`LoadModel::RandomWalk`] to draw move directions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The largest stealable fraction; the application always retains at least
/// 1 % of the processor so speeds never reach zero (which would make
/// completion times infinite).
pub(crate) const MAX_STOLEN: f64 = 0.99;

impl LoadModel {
    /// The fraction of the processor stolen by external load at time `t`,
    /// clamped to `[0, MAX_STOLEN]`.
    pub(crate) fn stolen_at(&self, t: SimTime) -> f64 {
        let raw = match self {
            LoadModel::None => 0.0,
            LoadModel::Constant { fraction } => *fraction,
            LoadModel::Step {
                start,
                end,
                fraction,
            } => {
                if t >= *start && t < *end {
                    *fraction
                } else {
                    0.0
                }
            }
            LoadModel::Sinusoid {
                base,
                amplitude,
                period,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t.as_secs() / period.as_secs();
                base + amplitude * phase.sin()
            }
            LoadModel::Trace { points } => {
                // Last change point at or before t.
                let idx = points.partition_point(|(since, _)| *since <= t);
                if idx == 0 {
                    0.0
                } else {
                    points[idx - 1].1
                }
            }
            LoadModel::RandomWalk {
                seed,
                interval,
                step,
                max,
            } => {
                let max = max.clamp(0.0, MAX_STOLEN);
                let steps = (t.as_secs() / interval.as_secs()) as u64;
                // Walk the (bounded) number of moves; reflect at the edges.
                // Cost is O(steps) per query — fine for simulation horizons,
                // documented as such.
                let mut frac = 0.0f64;
                for i in 0..steps.min(1_000_000) {
                    let up = splitmix64(seed ^ i) & 1 == 1;
                    frac += if up { *step } else { -step };
                    if frac < 0.0 {
                        frac = -frac;
                    }
                    if frac > max {
                        frac = 2.0 * max - frac;
                    }
                    frac = frac.clamp(0.0, max);
                }
                frac
            }
        };
        raw.clamp(0.0, MAX_STOLEN)
    }

    /// The fraction of the processor *available* to the application at `t`.
    pub(crate) fn available_at(&self, t: SimTime) -> f64 {
        1.0 - self.stolen_at(t)
    }

    /// True if this model never changes over time (so a single `Recon` stays
    /// accurate forever).
    pub fn is_static(&self) -> bool {
        match self {
            LoadModel::None | LoadModel::Constant { .. } => true,
            LoadModel::Trace { points } => points.is_empty(),
            LoadModel::Step { .. } | LoadModel::Sinusoid { .. } | LoadModel::RandomWalk { .. } => {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn none_steals_nothing() {
        assert_eq!(LoadModel::None.stolen_at(t(0.0)), 0.0);
        assert_eq!(LoadModel::None.available_at(t(123.0)), 1.0);
    }

    #[test]
    fn constant_is_constant() {
        let m = LoadModel::Constant { fraction: 0.5 };
        assert_eq!(m.stolen_at(t(0.0)), 0.5);
        assert_eq!(m.stolen_at(t(1e6)), 0.5);
    }

    #[test]
    fn constant_clamps_to_max() {
        let m = LoadModel::Constant { fraction: 2.0 };
        assert_eq!(m.stolen_at(t(0.0)), MAX_STOLEN);
        let m = LoadModel::Constant { fraction: -0.5 };
        assert_eq!(m.stolen_at(t(0.0)), 0.0);
    }

    #[test]
    fn step_is_active_only_inside_window() {
        let m = LoadModel::Step {
            start: t(10.0),
            end: t(20.0),
            fraction: 0.8,
        };
        assert_eq!(m.stolen_at(t(9.9)), 0.0);
        assert_eq!(m.stolen_at(t(10.0)), 0.8);
        assert_eq!(m.stolen_at(t(19.9)), 0.8);
        assert_eq!(m.stolen_at(t(20.0)), 0.0);
    }

    #[test]
    fn sinusoid_oscillates_around_base() {
        let m = LoadModel::Sinusoid {
            base: 0.5,
            amplitude: 0.3,
            period: t(4.0),
        };
        assert!((m.stolen_at(t(0.0)) - 0.5).abs() < 1e-12);
        assert!((m.stolen_at(t(1.0)) - 0.8).abs() < 1e-12); // sin peak
        assert!((m.stolen_at(t(3.0)) - 0.2).abs() < 1e-12); // sin trough
    }

    #[test]
    fn trace_picks_latest_change_point() {
        let m = LoadModel::Trace {
            points: vec![(t(1.0), 0.2), (t(5.0), 0.7)],
        };
        assert_eq!(m.stolen_at(t(0.5)), 0.0);
        assert_eq!(m.stolen_at(t(1.0)), 0.2);
        assert_eq!(m.stolen_at(t(4.9)), 0.2);
        assert_eq!(m.stolen_at(t(5.0)), 0.7);
        assert_eq!(m.stolen_at(t(100.0)), 0.7);
    }

    #[test]
    fn static_detection() {
        assert!(LoadModel::None.is_static());
        assert!(LoadModel::Constant { fraction: 0.1 }.is_static());
        assert!(!LoadModel::Step {
            start: t(0.0),
            end: t(1.0),
            fraction: 0.5
        }
        .is_static());
    }

    #[test]
    fn random_walk_is_deterministic_and_bounded() {
        let m = LoadModel::RandomWalk {
            seed: 42,
            interval: t(1.0),
            step: 0.1,
            max: 0.8,
        };
        let mut changed = false;
        let mut prev = m.stolen_at(t(0.0));
        for i in 0..200 {
            let ti = t(i as f64);
            let v = m.stolen_at(ti);
            assert!((0.0..=0.8).contains(&v), "walk escaped bounds: {v}");
            assert_eq!(v, m.stolen_at(ti), "same time, same value");
            if (v - prev).abs() > 1e-12 {
                changed = true;
            }
            prev = v;
        }
        assert!(changed, "the walk must actually move");
        // Different seeds give different walks.
        let other = LoadModel::RandomWalk {
            seed: 43,
            interval: t(1.0),
            step: 0.1,
            max: 0.8,
        };
        let same = (0..50).all(|i| m.stolen_at(t(i as f64)) == other.stolen_at(t(i as f64)));
        assert!(!same, "different seeds should diverge");
    }

    #[test]
    fn random_walk_moves_in_step_increments_between_intervals() {
        let m = LoadModel::RandomWalk {
            seed: 7,
            interval: t(2.0),
            step: 0.25,
            max: 0.9,
        };
        // Within one interval the value is constant.
        assert_eq!(m.stolen_at(t(4.0)), m.stolen_at(t(5.9)));
        // Across an interval boundary it moves by at most one step.
        let a = m.stolen_at(t(5.9));
        let b = m.stolen_at(t(6.0));
        assert!((a - b).abs() <= 0.25 + 1e-12);
    }

    #[test]
    fn available_plus_stolen_is_one() {
        let m = LoadModel::Sinusoid {
            base: 0.4,
            amplitude: 0.2,
            period: t(10.0),
        };
        for i in 0..20 {
            let ti = t(i as f64 * 0.7);
            assert!((m.available_at(ti) + m.stolen_at(ti) - 1.0).abs() < 1e-12);
        }
    }
}
