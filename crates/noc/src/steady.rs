//! Mid-run periodic-fixpoint detection for the drain phase.
//!
//! When the drain stalls (zero flit moves, a ready front blocked), the
//! remaining dynamics are a deterministic function of a compact state
//! vector (see `NetworkSim::steady_snapshot`). [`PeriodDetector`] watches
//! that vector with a Brent-style exponential-window search: it pins a
//! snapshot, compares every subsequent observation against it, and doubles
//! the window (re-pinning) until a later observation is **exactly equal**
//! to the pinned one. Equality of consecutive deterministic states proves
//! the trajectory is periodic with a period dividing the gap — every
//! remaining cycle replays observables verbatim, so the caller may consume
//! the rest of its budget in closed form.
//!
//! A fixpoint of period 1 is detected after two observations; a period-p
//! orbit is found once the window first reaches ≥ p with the snapshot on
//! the orbit, i.e. within O(p) observations. A state vector that keeps
//! advancing (e.g. fault hazard counters burning attempts) never compares
//! equal, so detection is implicitly disabled until the stream is
//! cycle-stable.

/// Exact-recurrence detector over `Vec<u64>` state vectors.
#[derive(Debug, Default)]
pub(crate) struct PeriodDetector {
    pinned: Vec<u64>,
    current: Vec<u64>,
    /// Observations between re-pins (doubles, Brent-style).
    window: u64,
    /// Observations since the last pin.
    since: u64,
    armed: bool,
}

impl PeriodDetector {
    /// Forgets any pinned state; call whenever the watched system made
    /// observable progress (a flit moved).
    pub fn reset(&mut self) {
        self.armed = false;
    }

    /// Feeds one observation (`fill` writes the state vector) and returns
    /// whether it exactly recurred.
    pub fn observe(&mut self, fill: impl FnOnce(&mut Vec<u64>)) -> bool {
        self.current.clear();
        fill(&mut self.current);
        if !self.armed {
            self.armed = true;
            self.window = 4;
            self.since = 0;
            self.pinned.clone_from(&self.current);
            return false;
        }
        self.since += 1;
        if self.current == self.pinned {
            return true;
        }
        if self.since >= self.window {
            // Re-pin further along the trajectory and widen the search so
            // any eventual period p is caught once window ≥ p.
            self.window *= 2;
            self.since = 0;
            std::mem::swap(&mut self.pinned, &mut self.current);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the detector over `states` cyclically, returning the index of
    /// the first firing observation (if any) within `limit` observations.
    fn first_fire(states: &[Vec<u64>], limit: usize) -> Option<usize> {
        let mut d = PeriodDetector::default();
        for i in 0..limit {
            let s = &states[i % states.len()];
            if d.observe(|out| out.extend_from_slice(s)) {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn period_one_fixpoint_fires_on_second_observation() {
        assert_eq!(first_fire(&[vec![7, 7, 7]], 10), Some(1));
    }

    #[test]
    fn period_three_orbit_is_detected() {
        let orbit = [vec![1, 0], vec![2, 0], vec![3, 0]];
        let fired = first_fire(&orbit, 64).expect("period-3 orbit must be found");
        assert!(fired >= 3, "cannot fire before one full period");
    }

    #[test]
    fn advancing_counter_never_fires() {
        let mut d = PeriodDetector::default();
        for t in 0..10_000u64 {
            // A strictly advancing component (e.g. fault attempts) keeps
            // every state unique.
            assert!(!d.observe(|out| out.push(t)));
        }
    }

    #[test]
    fn counter_that_stabilises_then_fires() {
        let mut d = PeriodDetector::default();
        let mut fired_at = None;
        for t in 0..200u64 {
            let frozen = t.min(50); // advances for 50 observations, then stops
            if d.observe(|out| out.push(frozen)) {
                fired_at = Some(t);
                break;
            }
        }
        assert!(fired_at.is_some_and(|t| t > 50));
    }

    #[test]
    fn reset_forgets_the_pin() {
        let mut d = PeriodDetector::default();
        assert!(!d.observe(|out| out.push(1)));
        d.reset();
        assert!(!d.observe(|out| out.push(1)), "re-arm, not a recurrence");
        assert!(d.observe(|out| out.push(1)));
    }
}
