//! Isolated per-layer rates: the PELT decay and LLC occupancy math,
//! each timed over repeated batches and reported as the median batch's
//! nanoseconds per call.

use crate::measure::median;
use crate::metrics::Outcome;
use guestos::pelt::{Pelt, PeltState};
use hostsim::llc::LlcModel;
use simcore::SimTime;
use std::time::Instant;

const BATCHES: usize = 7;

fn ns_per_call(calls: u64, batch: impl Fn(u64) -> f64) -> f64 {
    let xs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let observed = batch(calls);
            let secs = t0.elapsed().as_secs_f64();
            // Keeps the result observable so the loop is not removed.
            assert!(observed >= 0.0);
            secs * 1e9 / calls as f64
        })
        .collect();
    median(&xs)
}

/// `Pelt::update` over a spread of deltas and all three entity states.
pub fn pelt_update_ns() -> f64 {
    ns_per_call(2_000_000, |n| {
        let mut p = Pelt::new(SimTime(0));
        let mut now = 0u64;
        let deltas = [50_000u64, 350_000, 1_000_000, 4_000_000, 48_000_000];
        let states = [PeltState::Running, PeltState::Runnable, PeltState::Sleeping];
        for i in 0..n {
            now += deltas[(i % deltas.len() as u64) as usize];
            p.update(SimTime(now), states[(i % 3) as usize]);
        }
        p.util() + p.load()
    })
}

/// `LlcModel::advance` on a contended two-socket model: footprints
/// total 114 MiB against 64 MiB of LLC, with one VM per socket
/// descheduled, so fill, decay and eviction all run.
pub fn llc_advance_ns() -> f64 {
    const MB: f64 = 1024.0 * 1024.0;
    ns_per_call(500_000, |n| {
        let mut llc = LlcModel::new(2, 32.0 * MB);
        for vm in 0..6 {
            llc.add_vm();
            llc.set_footprint(SimTime::ZERO, vm, (4 + vm) as f64 * 4.0 * MB);
        }
        for vm in 0..3 {
            llc.on_sched(SimTime::ZERO, vm, 0);
        }
        for vm in 3..5 {
            llc.on_sched(SimTime::ZERO, vm, 1);
        }
        let mut now = SimTime::ZERO;
        for i in 0..n {
            now = now.after(250_000 + (i % 7) * 50_000);
            llc.advance(now, (i % 2) as usize);
        }
        llc.pressure()
    })
}

/// Sets both rates on `o`.
pub fn report(o: &mut Outcome) {
    o.set("guestos.pelt_update_ns", pelt_update_ns());
    o.set("hostsim.llc_advance_ns", llc_advance_ns());
}
