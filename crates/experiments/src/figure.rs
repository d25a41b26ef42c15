//! One figure or table of the evaluation: its cells and its reduction.
//!
//! Every figure is a reduction over independent *cells* — one (benchmark,
//! mode, knob) simulation each — that share no state beyond the seed. A
//! figure module defines its [`Figure`] once; the suite runs it through
//! [`Figure::job`] on the runner's pool, and tests, benches and examples
//! run the same cells serially through [`Figure::run`]. Both paths seed
//! each cell with [`cell_seed`] and merge parts in cell order, so they
//! produce the same figure.

use crate::common::Scale;
use crate::runner::Job;
use std::any::Any;
use std::fmt::Display;
use std::time::Duration;

/// One cell's result, typed per figure and merged by the figure's reducer.
pub type Part = Box<dyn Any + Send>;

/// One independent unit of work: a single simulation.
pub struct CellSpec {
    /// Stable identity within the figure; feeds [`cell_seed`].
    pub label: String,
    /// Per-cell wall-clock budget; overrides the suite-wide deadline.
    pub deadline: Option<Duration>,
    run: Box<dyn Fn(u64, Scale) -> Part + Send + Sync>,
}

impl CellSpec {
    /// Runs the cell's closure (the supervisor wraps this in
    /// `catch_unwind` and timing).
    pub(crate) fn execute(&self, seed: u64, scale: Scale) -> Part {
        (self.run)(seed, scale)
    }

    /// Gives this cell its own wall-clock budget.
    pub(crate) fn with_deadline(mut self, budget: Duration) -> CellSpec {
        self.deadline = Some(budget);
        self
    }
}

/// Builds a cell around a typed closure.
pub(crate) fn cell<T, F>(label: impl Into<String>, f: F) -> CellSpec
where
    T: Any + Send,
    F: Fn(u64, Scale) -> T + Send + Sync + 'static,
{
    CellSpec {
        label: label.into(),
        deadline: None,
        run: Box::new(move |seed, scale| Box::new(f(seed, scale)) as Part),
    }
}

/// Downcasts one part back to its cell's concrete type.
pub(crate) fn got<T: Any>(p: Part) -> T {
    *p.downcast::<T>()
        .expect("cell part carries the cell's type")
}

/// Stable per-cell seed: FNV-1a over `(figure, label)` finalized with the
/// base seed through a splitmix64 mix. Depends only on the cell's identity,
/// never on scheduling, worker count, or completion order.
pub fn cell_seed(base: u64, figure: &str, label: &str) -> u64 {
    let h = simcore::fnv1a64(
        figure
            .bytes()
            .chain(std::iter::once(0xff))
            .chain(label.bytes()),
    );
    let mut z = h ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A figure's cells plus the reduction that merges their parts into the
/// figure's typed result.
pub struct Figure<T> {
    /// Figure id (`fig02` … `table4`); feeds [`cell_seed`] and `--filter`.
    pub name: &'static str,
    /// One-line description (`suite --list`).
    pub desc: &'static str,
    /// The cells, in merge order.
    pub cells: Vec<CellSpec>,
    reduce: Box<dyn Fn(Vec<Part>, Scale) -> T + Send + Sync>,
}

impl<T: Display + 'static> Figure<T> {
    pub(crate) fn new(
        name: &'static str,
        desc: &'static str,
        cells: Vec<CellSpec>,
        reduce: impl Fn(Vec<Part>, Scale) -> T + Send + Sync + 'static,
    ) -> Figure<T> {
        Figure {
            name,
            desc,
            cells,
            reduce: Box::new(reduce),
        }
    }

    /// The suite job: the same cells, reduced to the rendered figure.
    pub fn job(self) -> Job {
        let reduce = self.reduce;
        Job {
            name: self.name,
            desc: self.desc,
            cells: self.cells,
            reduce: Box::new(move |parts, scale| reduce(parts, scale).to_string()),
        }
    }

    /// Runs every cell serially under its suite seed and reduces the parts:
    /// the typed result whose `Display` the suite prints.
    pub fn run(&self, seed: u64, scale: Scale) -> T {
        let parts = self
            .cells
            .iter()
            .map(|c| c.execute(cell_seed(seed, self.name, &c.label), scale))
            .collect();
        (self.reduce)(parts, scale)
    }
}
