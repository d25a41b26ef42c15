//! Experiment harness: one [`figure::Figure`] per table and figure of the
//! vSched paper.
//!
//! Every module reproduces one piece of the paper's evaluation (§2.3 and
//! §5): it builds the scenario on the simulated host, runs it under the
//! relevant scheduler configurations, and reduces the cells into a typed
//! result whose `Display` prints the same rows/series the paper reports.
//! Each module's `figure()` is the only definition of its cells and
//! reduction: the `suite` binary runs it through [`runner`], and the
//! integration tests run the same cells through [`figure::Figure::run`] to
//! assert the paper's *shape* claims (who wins, by roughly what factor).
//!
//! Durations follow a [`common::Scale`]; the binaries read it from the
//! `VSCHED_SCALE` environment variable (`smoke`/`quick`/`paper`).

pub mod adversary;
pub mod chaos;
pub mod checkpoint;
pub mod common;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18_19;
pub mod fig20;
pub mod fig21;
pub mod figure;
pub mod fleet;
pub mod fleet_chaos;
pub mod oracle;
pub mod profiles;
pub mod replay;
pub mod runner;
pub mod shrink;
pub mod supervise;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod vcache;

pub use common::{Mode, Scale};
