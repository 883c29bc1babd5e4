//! # rtise-rt
//!
//! The periodic real-time task model of the paper (§3.1.1): independent,
//! preemptable tasks with implicit deadlines, scheduled under EDF or RMS.
//!
//! * [`PeriodicTask`] — worst-case execution time `C` and period `P`
//!   (deadline = period).
//! * [`utilization`] / [`edf_schedulable`] — the exact EDF condition
//!   `U = Σ Cᵢ/Pᵢ ≤ 1` (Liu & Layland).
//! * [`rms_schedulable`] — the exact RMS test of Theorem 1 over the
//!   Bini–Buttazzo [`scheduling_points`], plus the conservative Liu–Layland
//!   sufficient bound [`rms_ll_bound`] used by the voltage-scaling step.
//! * [`simulate_edf`] / [`simulate_rms`] — cycle-accurate preemptive
//!   schedule simulators over the hyperperiod, used to cross-validate the
//!   analytic tests.
//! * [`dvfs`] — the Transmeta TM5400-style frequency/voltage ladder and the
//!   static voltage-scaling energy model of §3.2.2.
//!
//! # Example
//!
//! ```
//! use rtise_rt::{PeriodicTask, edf_schedulable, rms_schedulable, utilization};
//!
//! let tasks = vec![
//!     PeriodicTask::new("a", 1, 3),
//!     PeriodicTask::new("b", 1, 4),
//!     PeriodicTask::new("c", 1, 5),
//! ];
//! assert!(utilization(&tasks) < 0.79);
//! assert!(edf_schedulable(&tasks));
//! assert!(rms_schedulable(&tasks));
//! ```

pub mod dvfs;

/// A periodic, preemptable task with implicit deadline (= period).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeriodicTask {
    /// Task name, used in reports.
    pub name: String,
    /// Worst-case execution time in cycles.
    pub wcet: u64,
    /// Period (and deadline) in cycles.
    pub period: u64,
}

impl PeriodicTask {
    /// Creates a task.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(name: impl Into<String>, wcet: u64, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        PeriodicTask {
            name: name.into(),
            wcet,
            period,
        }
    }

    /// The task's processor utilization `C/P`.
    pub fn utilization(&self) -> f64 {
        self.wcet as f64 / self.period as f64
    }
}

/// Total utilization `U = Σ Cᵢ/Pᵢ` of a task set.
pub fn utilization(tasks: &[PeriodicTask]) -> f64 {
    tasks.iter().map(PeriodicTask::utilization).sum()
}

/// Exact EDF schedulability for implicit-deadline periodic tasks: `U ≤ 1`.
pub fn edf_schedulable(tasks: &[PeriodicTask]) -> bool {
    // Compare exactly in integers: Σ Cᵢ·(H/Pᵢ) ≤ H over the hyperperiod.
    let h = hyperperiod(tasks);
    match h {
        Some(h) => {
            let demand: u128 = tasks
                .iter()
                .map(|t| t.wcet as u128 * (h / t.period) as u128)
                .sum();
            demand <= h as u128
        }
        // Hyperperiod overflowed; fall back to floating point.
        None => utilization(tasks) <= 1.0 + 1e-12,
    }
}

/// The Liu–Layland sufficient (but not necessary) RMS bound
/// `U ≤ n(2^{1/n} − 1)`.
pub fn rms_ll_bound(n_tasks: usize) -> f64 {
    if n_tasks == 0 {
        return 1.0;
    }
    let n = n_tasks as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Exact RMS schedulability test (Theorem 1 of the paper, after
/// Bini–Buttazzo).
///
/// Tasks are checked in increasing period order; the whole set is
/// schedulable iff `maxᵢ Lᵢ ≤ 1` where
/// `Lᵢ = min_{t ∈ Sᵢ₋₁(Pᵢ)} Σ_{j≤i} ⌈t/Pⱼ⌉ Cⱼ / t`.
pub fn rms_schedulable(tasks: &[PeriodicTask]) -> bool {
    let mut sorted: Vec<&PeriodicTask> = tasks.iter().collect();
    sorted.sort_by_key(|t| t.period);
    (0..sorted.len()).all(|i| rms_task_schedulable(&sorted, i))
}

/// Exact schedulability of the `i`-th task (0-based, `tasks` sorted by
/// increasing period): `Lᵢ ≤ 1`.
///
/// This incremental form is what the branch-and-bound selector uses: adding
/// a lower-priority task can never disturb higher-priority ones, so only the
/// newly added task needs the check (§3.1.4).
pub fn rms_task_schedulable(sorted: &[&PeriodicTask], i: usize) -> bool {
    let periods: Vec<u64> = sorted[..=i].iter().map(|t| t.period).collect();
    scheduling_points(&periods, i).into_iter().any(|t| {
        let demand: u128 = sorted[..=i]
            .iter()
            .map(|tj| (t as u128).div_ceil(tj.period as u128) * tj.wcet as u128)
            .sum();
        demand <= t as u128
    })
}

/// The scheduling points of Theorem 1 for task `i` (0-based; `periods`
/// in increasing order), ascending, zero removed: `Sᵢ(periods[i])` with
/// `S₀(t) = {t}` and `Sₖ(t) = Sₖ₋₁(⌊t/Pₖ⌋ Pₖ) ∪ Sₖ₋₁(t)`, where
/// `Pₖ = periods[k - 1]`. In the paper's 1-based task numbering this is
/// `Sᵢ₋₁(Pᵢ)`.
///
/// The set is built one priority level at a time, from `periods[i - 1]`
/// down to `periods[0]`, merging duplicates at each level, so the work is
/// bounded by the number of distinct points rather than by the
/// recursion's `2^i` leaves. Depends only on periods, never on execution
/// times.
pub fn scheduling_points(periods: &[u64], i: usize) -> Vec<u64> {
    let mut points = vec![periods[i]];
    for &p in periods[..i].iter().rev() {
        let floors: Vec<u64> = points.iter().map(|&t| t / p * p).collect();
        points.extend(floors);
        points.sort_unstable();
        points.dedup();
    }
    points.retain(|&t| t > 0);
    points
}

/// Least common multiple of all periods, or `None` on overflow.
pub fn hyperperiod(tasks: &[PeriodicTask]) -> Option<u64> {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    tasks.iter().try_fold(1u64, |acc, t| {
        let g = gcd(acc, t.period);
        (acc / g).checked_mul(t.period)
    })
}

/// Outcome of a schedule simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOutcome {
    /// All jobs met their deadlines over the simulated horizon.
    AllDeadlinesMet,
    /// Some job of the named task index missed its deadline at the given
    /// time.
    DeadlineMiss {
        /// Index of the task whose job missed.
        task: usize,
        /// Absolute time of the missed deadline.
        time: u64,
    },
}

/// Simulates preemptive EDF with synchronous release over one hyperperiod.
///
/// Used to cross-validate [`edf_schedulable`]; for implicit-deadline
/// periodic tasks with simultaneous release, one hyperperiod suffices.
pub fn simulate_edf(tasks: &[PeriodicTask]) -> SimOutcome {
    simulate(tasks, |jobs| {
        jobs.iter()
            .enumerate()
            .filter(|(_, j)| j.remaining > 0)
            .min_by_key(|(_, j)| j.deadline)
            .map(|(i, _)| i)
    })
}

/// Simulates preemptive RMS (fixed priority = shorter period first) with
/// synchronous release over one hyperperiod.
pub fn simulate_rms(tasks: &[PeriodicTask]) -> SimOutcome {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| tasks[i].period);
    simulate(tasks, move |jobs| {
        order.iter().copied().find(|&i| jobs[i].remaining > 0)
    })
}

struct Job {
    remaining: u64,
    deadline: u64,
    next_release: u64,
}

/// Event-driven preemptive scheduler simulation over one hyperperiod.
fn simulate<F>(tasks: &[PeriodicTask], pick: F) -> SimOutcome
where
    F: Fn(&[Job]) -> Option<usize>,
{
    if tasks.is_empty() {
        return SimOutcome::AllDeadlinesMet;
    }
    let horizon = hyperperiod(tasks).unwrap_or(u64::MAX / 4);
    let mut jobs: Vec<Job> = tasks
        .iter()
        .map(|t| Job {
            remaining: t.wcet,
            deadline: t.period,
            next_release: t.period,
        })
        .collect();
    let mut now = 0u64;
    while now < horizon {
        // Check deadline misses at `now` (jobs whose deadline passed with
        // work remaining are caught when we advance time below).
        let running = pick(&jobs);
        // Next event: earliest release, or completion of the running job.
        let next_release = jobs.iter().map(|j| j.next_release).min().unwrap_or(horizon);
        let step_end = match running {
            Some(r) => (now + jobs[r].remaining).min(next_release),
            None => next_release,
        }
        .min(horizon);
        let delta = step_end - now;
        if let Some(r) = running {
            // Deadline check: must finish by its deadline.
            if now + jobs[r].remaining > jobs[r].deadline && step_end > jobs[r].deadline {
                return SimOutcome::DeadlineMiss {
                    task: r,
                    time: jobs[r].deadline,
                };
            }
            jobs[r].remaining -= delta;
            if jobs[r].remaining == 0 && step_end > jobs[r].deadline {
                return SimOutcome::DeadlineMiss {
                    task: r,
                    time: jobs[r].deadline,
                };
            }
        }
        now = step_end;
        // Releases at `now`. A release doubles as the deadline of the
        // previous job (implicit deadlines), so leftover work is a miss.
        // Releases exactly at the horizon open the next (identical)
        // hyperperiod and are not simulated, but their deadline check still
        // applies.
        for (i, (j, t)) in jobs.iter_mut().zip(tasks).enumerate() {
            if j.next_release == now {
                if j.remaining > 0 {
                    return SimOutcome::DeadlineMiss {
                        task: i,
                        time: j.deadline,
                    };
                }
                if now < horizon {
                    j.remaining = t.wcet;
                    j.deadline = now + t.period;
                    j.next_release = now + t.period;
                } else {
                    j.next_release = u64::MAX;
                }
            }
        }
    }
    SimOutcome::AllDeadlinesMet
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtise_obs::Rng;

    fn tasks(spec: &[(u64, u64)]) -> Vec<PeriodicTask> {
        spec.iter()
            .enumerate()
            .map(|(i, &(c, p))| PeriodicTask::new(format!("t{i}"), c, p))
            .collect()
    }

    #[test]
    fn utilization_sums() {
        let ts = tasks(&[(1, 4), (1, 2)]);
        assert!((utilization(&ts) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn edf_exact_boundary() {
        assert!(edf_schedulable(&tasks(&[(1, 2), (1, 2)])));
        assert!(!edf_schedulable(&tasks(&[(1, 2), (1, 2), (1, 4)])));
    }

    #[test]
    fn hyperperiod_lcm() {
        assert_eq!(hyperperiod(&tasks(&[(1, 6), (1, 8), (1, 12)])), Some(24));
        assert_eq!(hyperperiod(&[]), Some(1));
    }

    #[test]
    fn ll_bound_values() {
        assert!((rms_ll_bound(1) - 1.0).abs() < 1e-12);
        assert!((rms_ll_bound(2) - 0.8284).abs() < 1e-3);
        assert!(rms_ll_bound(10) > 0.69 && rms_ll_bound(10) < 0.72);
    }

    #[test]
    fn rms_schedulable_above_ll_bound() {
        // Classic example: U ≈ 0.952 exceeds the LL bound for n = 3 but is
        // exactly schedulable.
        let ts = tasks(&[(40, 100), (40, 150), (100, 350)]);
        assert!(utilization(&ts) > rms_ll_bound(3));
        assert!(rms_schedulable(&ts));
        assert_eq!(simulate_rms(&ts), SimOutcome::AllDeadlinesMet);
    }

    #[test]
    fn rms_detects_unschedulable_set_with_u_below_one() {
        // EDF-schedulable (U = 29/30 ≤ 1) but not RMS-schedulable.
        let ts = tasks(&[(3, 6), (4, 10), (1, 15)]);
        assert!(edf_schedulable(&ts));
        assert!(!rms_schedulable(&ts));
        assert!(matches!(simulate_rms(&ts), SimOutcome::DeadlineMiss { .. }));
        assert_eq!(simulate_edf(&ts), SimOutcome::AllDeadlinesMet);
    }

    #[test]
    fn full_utilization_harmonic_is_rms_schedulable() {
        let ts = tasks(&[(1, 2), (1, 4), (2, 8)]);
        assert!((utilization(&ts) - 1.0).abs() < 1e-12);
        assert!(rms_schedulable(&ts));
        assert_eq!(simulate_rms(&ts), SimOutcome::AllDeadlinesMet);
    }

    #[test]
    fn simulators_agree_with_analysis_on_random_sets() {
        let mut rng = Rng::new(2024);
        for case in 0..200 {
            let n = rng.gen_range(1..=4u32);
            let ts: Vec<PeriodicTask> = (0..n)
                .map(|i| {
                    let p = rng.gen_range(2u64..=12);
                    let c = rng.gen_range(1u64..=p);
                    PeriodicTask::new(format!("t{i}"), c, p)
                })
                .collect();
            let edf_ok = edf_schedulable(&ts);
            let edf_sim = simulate_edf(&ts) == SimOutcome::AllDeadlinesMet;
            assert_eq!(edf_ok, edf_sim, "case {case} EDF mismatch: {ts:?}");
            let rms_ok = rms_schedulable(&ts);
            let rms_sim = simulate_rms(&ts) == SimOutcome::AllDeadlinesMet;
            assert_eq!(rms_ok, rms_sim, "case {case} RMS mismatch: {ts:?}");
        }
    }

    #[test]
    fn rms_implies_edf() {
        let mut rng = Rng::new(7);
        for _ in 0..100 {
            let n = rng.gen_range(1..=5u32);
            let ts: Vec<PeriodicTask> = (0..n)
                .map(|i| {
                    let p = rng.gen_range(2u64..=30);
                    let c = rng.gen_range(1u64..=p);
                    PeriodicTask::new(format!("t{i}"), c, p)
                })
                .collect();
            if rms_schedulable(&ts) {
                assert!(edf_schedulable(&ts), "{ts:?}");
            }
        }
    }

    #[test]
    fn scheduling_points_match_the_recursive_definition() {
        // The Theorem 1 recurrence, expanded leaf by leaf (2^i leaves).
        fn rec(periods: &[u64], level: usize, t: u64, out: &mut Vec<u64>) {
            if level == 0 {
                out.push(t);
                return;
            }
            let p = periods[level - 1];
            rec(periods, level - 1, t / p * p, out);
            rec(periods, level - 1, t, out);
        }
        let mut rng = Rng::new(0x5C4E);
        for case in 0..200 {
            let n = rng.gen_range(1..=15usize);
            let mut periods: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..=400)).collect();
            periods.sort_unstable();
            let i = rng.gen_range(0..n);
            let mut want = Vec::new();
            rec(&periods, i, periods[i], &mut want);
            want.sort_unstable();
            want.dedup();
            want.retain(|&t| t > 0);
            assert_eq!(
                scheduling_points(&periods, i),
                want,
                "case {case}: periods {periods:?}, i = {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = PeriodicTask::new("bad", 1, 0);
    }
}
