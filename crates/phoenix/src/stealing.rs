//! Task stealing policies (paper Section 4.3).
//!
//! Phoenix++ lets an idle core steal unfinished tasks from loaded cores. On
//! a VFI platform this backfires: a *slow* core that finishes its short
//! initial task early steals work that a *fast* core would have completed
//! sooner, leaving fast cores idle and stretching the phase. The paper's fix
//! caps the number of tasks a below-maximum-frequency core may execute at
//!
//! ```text
//! N_f = ⌊ (N / C) · (1 − (f_max − f) / f_max) ⌋        (Eq. 3)
//! ```
//!
//! where `N` is the task count of the phase, `C` the core count, `f` the
//! core's frequency and `f_max` the maximum frequency in the system.

/// How idle cores acquire more work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// Phoenix++ default: any idle core steals from the most loaded core.
    #[default]
    Default,
    /// VFI-aware stealing: cores below the maximum frequency execute at most
    /// `N_f` tasks (Eq. 3); their leftover tasks are stolen by fast cores.
    VfiCapped,
}

/// Eq. (3): the task cap for a core at relative speed `f / f_max`, given
/// `total_tasks` in the phase and `cores` in the system.
///
/// Cores at full speed are uncapped (`usize::MAX`). "Full speed" is judged
/// with an absolute tolerance of `1e-12`: any `speed_ratio >= 1.0 - 1e-12`
/// counts as `f == f_max`, and ratios up to `1.0 + 1e-12` are accepted as
/// valid input. The tolerance absorbs the rounding of the
/// [`caps_for_phase`] renormalisation (`s / fastest` can land one ULP on
/// either side of 1.0 for the fastest core itself) without ever flipping a
/// genuinely slower core to uncapped — real frequency steps are many orders
/// of magnitude wider than `1e-12`.
///
/// With `total_tasks == 0` every below-maximum core's cap is 0 (nothing to
/// run, nothing to steal), and when `cores > total_tasks` the per-core
/// share `N / C` is below 1, so any below-maximum core caps at 0 and all
/// leftover work lands on full-speed cores.
///
/// # Panics
///
/// Panics if `cores == 0` or `speed_ratio` is outside `(0, 1 + 1e-12]`.
///
/// # Examples
///
/// ```
/// use mapwave_phoenix::stealing::task_cap;
///
/// // 100 tasks, 64 cores, f = 2.0 GHz of f_max = 2.5 GHz:
/// // ⌊100/64 · (1 − 0.5/2.5)⌋ = ⌊1.5625 · 0.8⌋ = 1.
/// assert_eq!(task_cap(100, 64, 0.8), 1);
/// assert_eq!(task_cap(100, 64, 1.0), usize::MAX);
/// ```
pub fn task_cap(total_tasks: usize, cores: usize, speed_ratio: f64) -> usize {
    assert!(cores > 0, "cores must be nonzero");
    assert!(
        speed_ratio > 0.0 && speed_ratio <= 1.0 + 1e-12,
        "speed ratio must be in (0,1]"
    );
    if speed_ratio >= 1.0 - 1e-12 {
        return usize::MAX;
    }
    ((total_tasks as f64 / cores as f64) * speed_ratio).floor() as usize
}

/// Per-core task caps for a phase under `policy`.
///
/// `speed_ratios[i]` is core `i`'s frequency relative to a reference clock.
/// Eq. (3)'s `f_max` is the **maximum frequency of operation present in the
/// system**, so ratios are re-normalised to the fastest core before the cap
/// is computed — a system whose fastest island runs below the table maximum
/// still keeps that island uncapped. Under [`StealPolicy::Default`] every
/// core is uncapped.
pub fn caps_for_phase(policy: StealPolicy, total_tasks: usize, speed_ratios: &[f64]) -> Vec<usize> {
    let fastest = speed_ratios.iter().cloned().fold(0.0, f64::max);
    match policy {
        StealPolicy::VfiCapped if fastest > 0.0 => speed_ratios
            .iter()
            .map(|&s| task_cap(total_tasks, speed_ratios.len(), s / fastest))
            .collect(),
        _ => vec![usize::MAX; speed_ratios.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_word_count_example() {
        // WC: 100 tasks, 64 cores, two speeds 2.0/2.5 = 0.8 and full speed.
        assert_eq!(task_cap(100, 64, 0.8), 1);
        assert_eq!(task_cap(100, 64, 1.0), usize::MAX);
    }

    #[test]
    fn cap_monotone_in_speed() {
        let mut prev = 0;
        for s in [0.2, 0.4, 0.6, 0.8, 0.99] {
            let c = task_cap(1000, 8, s);
            assert!(c >= prev, "cap must grow with speed");
            prev = c;
        }
    }

    #[test]
    fn cap_scales_with_tasks() {
        assert!(task_cap(1000, 64, 0.8) > task_cap(100, 64, 0.8));
    }

    #[test]
    fn default_policy_uncapped() {
        let caps = caps_for_phase(StealPolicy::Default, 100, &[0.6, 0.8, 1.0]);
        assert!(caps.iter().all(|&c| c == usize::MAX));
    }

    #[test]
    fn vfi_policy_caps_slow_cores_only() {
        let caps = caps_for_phase(StealPolicy::VfiCapped, 64, &[0.6, 1.0, 0.8, 1.0]);
        assert_eq!(caps[1], usize::MAX);
        assert_eq!(caps[3], usize::MAX);
        assert!(caps[0] < caps[2], "slower core gets smaller cap");
        assert_eq!(caps[0], (16.0 * 0.6) as usize);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_cores() {
        let _ = task_cap(10, 0, 0.5);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_speed() {
        let _ = task_cap(10, 4, 0.0);
    }

    #[test]
    fn full_speed_tolerance_boundary() {
        // Exactly 1.0 and anything within 1e-12 of it count as full speed;
        // ratios measurably below the band are capped.
        assert_eq!(task_cap(100, 64, 1.0), usize::MAX);
        assert_eq!(task_cap(100, 64, 1.0 - 1e-12), usize::MAX);
        assert_eq!(task_cap(100, 64, 1.0 - 0.5e-12), usize::MAX);
        assert_eq!(task_cap(100, 64, 1.0 + 1e-12), usize::MAX);
        assert_eq!(task_cap(100, 64, 1.0 - 1e-9), 1);
        assert_eq!(task_cap(1000, 8, 1.0 - 1e-9), 124);
    }

    #[test]
    #[should_panic]
    fn rejects_ratio_above_tolerance_band() {
        let _ = task_cap(10, 4, 1.0 + 1e-9);
    }

    #[test]
    fn zero_tasks_cap_slow_cores_at_zero() {
        assert_eq!(task_cap(0, 8, 0.5), 0);
        assert_eq!(task_cap(0, 8, 0.999), 0);
        let caps = caps_for_phase(StealPolicy::VfiCapped, 0, &[0.5, 1.0]);
        assert_eq!(caps, vec![0, usize::MAX]);
    }

    #[test]
    fn more_cores_than_tasks_caps_slow_cores_at_zero() {
        // N/C < 1, so every below-maximum core floors to zero and the
        // full-speed cores carry the whole (tiny) phase.
        assert_eq!(task_cap(3, 8, 0.9), 0);
        let caps = caps_for_phase(StealPolicy::VfiCapped, 3, &[0.8, 0.9, 1.0, 1.0]);
        assert_eq!(caps, vec![0, 0, usize::MAX, usize::MAX]);
    }

    #[test]
    fn at_least_one_uncapped_core_when_max_present() {
        // Eq. (3) applies only to f < f_max, so a system always retains
        // uncapped capacity as long as some core runs at f_max.
        let speeds = [0.6, 0.6, 1.0, 0.8];
        let caps = caps_for_phase(StealPolicy::VfiCapped, 50, &speeds);
        assert!(caps.contains(&usize::MAX));
    }
}
