//! Probe vetting shared by the hardened probers (vcap, vtop, vcache).
//!
//! Each prober keeps a short history of *accepted* readings per probed
//! unit (vCPU, pair class, LLC domain) and rejects a new reading that
//! falls outside a robust median/MAD band around that history. Every
//! rejection bumps an interference-suspicion score that the resilience
//! layer consumes; a clean window or pass bleeds it off again. Only the
//! band floor differs between probers, so it is a parameter.

use guestos::Kernel;
use simcore::SimTime;
use std::collections::VecDeque;
use trace::{EventKind, ProbeKind};

/// Accepted readings remembered per probed unit.
const HISTORY_CAP: usize = 8;
/// Band tests need at least this much history to be meaningful.
const HISTORY_MIN: usize = 4;

/// Minimum half-width of the rejection band.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Floor {
    /// A fraction of the history median (vcap capacities, vtop latencies).
    Relative(f64),
    /// An absolute width (vcache's normalized `[0, 1]` pressure).
    Absolute(f64),
}

/// Accepted readings for one probed unit, newest last.
#[derive(Debug, Clone, Default)]
pub(crate) struct History(pub(crate) VecDeque<f64>);

impl History {
    /// Records an accepted reading, forgetting the oldest past the cap.
    pub(crate) fn push(&mut self, x: f64) {
        self.0.push_back(x);
        if self.0.len() > HISTORY_CAP {
            self.0.pop_front();
        }
    }

    /// Whether no reading has been accepted yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Median of the accepted readings (0 when empty).
    pub(crate) fn median(&self) -> f64 {
        median_of(self.0.iter().copied())
    }

    /// `Some(history median)` when `x` lies outside the band
    /// `median ± max(4·MAD, floor)`; `None` when it lies inside or the
    /// history is still too short to judge.
    pub(crate) fn outlier(&self, x: f64, floor: Floor) -> Option<f64> {
        if self.0.len() < HISTORY_MIN {
            return None;
        }
        let med = self.median();
        let mad = median_of(self.0.iter().map(|&h| (h - med).abs()));
        let floor = match floor {
            Floor::Relative(frac) => frac * med,
            Floor::Absolute(width) => width,
        };
        ((x - med).abs() > (4.0 * mad).max(floor)).then_some(med)
    }
}

/// Interference-suspicion score in `[0, 1]` plus the rejection count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Suspicion {
    /// Current score: +0.35 per rejection, ×0.6 per clean window.
    pub score: f64,
    /// Readings rejected over the run.
    pub rejected: u64,
}

impl Suspicion {
    /// Counts one rejected reading and traces it against the median it
    /// fell outside of.
    pub(crate) fn reject(
        &mut self,
        kern: &mut Kernel,
        now: SimTime,
        probe: ProbeKind,
        vcpu: usize,
        sample: f64,
        median: f64,
    ) {
        self.rejected += 1;
        self.score = (self.score + 0.35).min(1.0);
        let vcpu = vcpu as u16;
        kern.trace.emit(
            now,
            EventKind::ProbeRejected {
                vcpu,
                probe,
                sample,
                median,
            },
        );
    }

    /// A window or pass without rejections decays the score.
    pub(crate) fn clean(&mut self) {
        self.score *= 0.6;
    }
}

/// Median of a small sample set. `total_cmp` keeps a hostile NaN from
/// poisoning the sort (a lying host can produce any f64).
pub(crate) fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = values.collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    if xs.is_empty() {
        0.0
    } else {
        xs[(xs.len() - 1) / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_floors_history_cap_and_decay() {
        let mut h = History::default();
        for x in [9.0, 9.0, 9.0, 100.0, 100.0] {
            h.push(x);
            assert_eq!(
                h.outlier(1e9, Floor::Absolute(0.0)).is_some(),
                h.0.len() >= HISTORY_MIN
            );
        }
        for _ in 0..HISTORY_CAP {
            h.push(100.0);
        }
        assert_eq!((h.0.len(), h.median()), (HISTORY_CAP, 100.0));
        // Zero MAD: the floor alone sets the band.
        assert_eq!(h.outlier(120.0, Floor::Relative(0.25)), None);
        assert_eq!(h.outlier(130.0, Floor::Relative(0.25)), Some(100.0));
        assert_eq!(h.outlier(100.1, Floor::Absolute(0.2)), None);
        assert_eq!(h.outlier(100.3, Floor::Absolute(0.2)), Some(100.0));
        let mut s = Suspicion {
            score: 1.0,
            rejected: 4,
        };
        s.clean();
        assert_eq!((s.score, s.rejected), (0.6, 4));
        assert!(median_of([f64::NAN, 1.0, 2.0].into_iter()).is_finite());
    }
}
