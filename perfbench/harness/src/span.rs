//! In-memory spans recorded around calls into the simulator's layers.
//!
//! A [`Tracer`] is shared (`Rc`) by every wrapper of one traced run. Each
//! wrapped call opens a span on entry and closes it on return; spans nest
//! on a stack, so a workload callback that wakes a task holds the
//! `select_cpu` hook span as its child. A span's *self time* is its
//! duration minus the durations of its direct children, accumulated per
//! [`Kind`] when the span closes. Raw spans are kept up to a cap and
//! written out when the run ends; the per-kind totals cover every span.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Raw spans kept per tracer; totals keep counting past it.
pub const SPAN_CAP: usize = 20_000;

/// Every boundary the harness wraps. The prefix names the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `experiments::runner::run_suite`.
    RunSuite,
    /// `hostsim::Machine::run_until`.
    RunUntil,
    /// `fleet::Cluster::run`.
    ClusterRun,
    /// `Workload::start`.
    WlStart,
    /// `Workload::on_timer`.
    WlTimer,
    /// `Workload::next_action`.
    WlNextAction,
    /// `SchedHooks::select_cpu`.
    HookSelectCpu,
    /// `SchedHooks::on_tick`.
    HookTick,
    /// `SchedHooks::on_vcpu_start`.
    HookVcpuStart,
    /// `SchedHooks::on_vcpu_stop`.
    HookVcpuStop,
    /// `SchedHooks::on_timer`.
    HookTimer,
    /// `SchedHooks::on_builtin_burst`.
    HookBuiltinBurst,
    /// `PlacementPolicy::place`.
    Place,
}

impl Kind {
    /// Every kind, in [`Kind::index`] order.
    pub const ALL: [Kind; 13] = [
        Kind::RunSuite,
        Kind::RunUntil,
        Kind::ClusterRun,
        Kind::WlStart,
        Kind::WlTimer,
        Kind::WlNextAction,
        Kind::HookSelectCpu,
        Kind::HookTick,
        Kind::HookVcpuStart,
        Kind::HookVcpuStop,
        Kind::HookTimer,
        Kind::HookBuiltinBurst,
        Kind::Place,
    ];

    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RunSuite => "experiments.run_suite",
            Kind::RunUntil => "hostsim.run_until",
            Kind::ClusterRun => "fleet.cluster_run",
            Kind::WlStart => "workloads.start",
            Kind::WlTimer => "workloads.on_timer",
            Kind::WlNextAction => "workloads.next_action",
            Kind::HookSelectCpu => "vsched.select_cpu",
            Kind::HookTick => "vsched.on_tick",
            Kind::HookVcpuStart => "vsched.on_vcpu_start",
            Kind::HookVcpuStop => "vsched.on_vcpu_stop",
            Kind::HookTimer => "vsched.on_timer",
            Kind::HookBuiltinBurst => "vsched.on_builtin_burst",
            Kind::Place => "fleet.place",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether the span wraps a vSched scheduler hook.
    pub fn is_hook(self) -> bool {
        matches!(
            self,
            Kind::HookSelectCpu
                | Kind::HookTick
                | Kind::HookVcpuStart
                | Kind::HookVcpuStop
                | Kind::HookTimer
                | Kind::HookBuiltinBurst
        )
    }

    /// Whether the span wraps a workload callback.
    pub fn is_workload(self) -> bool {
        matches!(self, Kind::WlStart | Kind::WlTimer | Kind::WlNextAction)
    }
}

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Which run of the process the span belongs to.
    pub run: u32,
    /// Span id: spans are numbered in the order they open.
    pub id: u32,
    /// Id of the enclosing span (`None` for a root span).
    pub parent: Option<u32>,
    /// Entry time.
    pub start_ns: u64,
    /// Return time.
    pub end_ns: u64,
}

/// Totals for one [`Kind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus direct children.
    pub self_ns: u64,
}

struct Open {
    kind: Kind,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// Span recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    run: u32,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    totals: [Totals; Kind::ALL.len()],
}

/// The handle every wrapper of one run holds.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh tracer for run `run`.
    pub fn new(run: u32) -> Self {
        Tracer {
            epoch: Instant::now(),
            run,
            next_id: 0,
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
            totals: [Totals::default(); Kind::ALL.len()],
        }
    }

    /// A fresh shared tracer.
    pub fn shared(run: u32) -> SharedTracer {
        Rc::new(RefCell::new(Tracer::new(run)))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span at `t_ns`.
    pub fn enter_at(&mut self, kind: Kind, t_ns: u64) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            kind,
            id,
            start_ns: t_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost span at `t_ns`.
    pub fn exit_at(&mut self, t_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = t_ns.saturating_sub(open.start_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let tot = &mut self.totals[open.kind.index()];
        tot.calls += 1;
        tot.total_ns += dur;
        tot.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                kind: open.kind,
                run: self.run,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns: t_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Totals for one kind.
    pub fn totals(&self, kind: Kind) -> Totals {
        self.totals[kind.index()]
    }

    /// Summed self time over the kinds `pick` selects, in seconds.
    pub fn self_secs(&self, pick: impl Fn(Kind) -> bool) -> f64 {
        Kind::ALL
            .iter()
            .filter(|k| pick(**k))
            .map(|k| self.totals(*k).self_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Summed call count over the kinds `pick` selects.
    pub fn calls(&self, pick: impl Fn(Kind) -> bool) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| pick(**k))
            .map(|k| self.totals(*k).calls)
            .sum()
    }

    /// Closed spans kept so far (closing order).
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the totals and the kept spans as JSON lines: one `totals`
    /// line per kind, then one line per span.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"run\":{},\"spans_kept\":{},\"spans_dropped\":{}}}",
            self.run,
            self.spans.len(),
            self.dropped
        );
        for k in Kind::ALL {
            let t = self.totals(k);
            let _ = writeln!(
                out,
                "{{\"totals\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                k.name(),
                t.calls,
                t.total_ns,
                t.self_ns
            );
        }
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"run\":{},\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.kind.name(),
                s.run,
                s.id,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Runs `f` inside a span of `kind`. The tracer is not borrowed while `f`
/// runs, so `f` may open nested spans on the same tracer.
pub fn span<R>(tr: &SharedTracer, kind: Kind, f: impl FnOnce() -> R) -> R {
    {
        let mut t = tr.borrow_mut();
        let now = t.now_ns();
        t.enter_at(kind, now);
    }
    let r = f();
    let mut t = tr.borrow_mut();
    let now = t.now_ns();
    t.exit_at(now);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// run_until [0, 100) holds a workload callback [10, 50) that wakes a
    /// task (select_cpu [20, 30)) and a tick hook [60, 65).
    fn fixture() -> Tracer {
        let mut t = Tracer::new(7);
        t.enter_at(Kind::RunUntil, 0);
        t.enter_at(Kind::WlNextAction, 10);
        t.enter_at(Kind::HookSelectCpu, 20);
        t.exit_at(30);
        t.exit_at(50);
        t.enter_at(Kind::HookTick, 60);
        t.exit_at(65);
        t.exit_at(100);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = fixture();
        assert_eq!(
            t.totals(Kind::RunUntil),
            Totals {
                calls: 1,
                total_ns: 100,
                self_ns: 100 - 40 - 5
            }
        );
        assert_eq!(t.totals(Kind::WlNextAction).self_ns, 40 - 10);
        assert_eq!(t.totals(Kind::HookSelectCpu).self_ns, 10);
        assert_eq!(t.totals(Kind::HookTick).self_ns, 5);
    }

    #[test]
    fn layer_self_times_partition_the_root() {
        let t = fixture();
        let host = t.totals(Kind::RunUntil).self_ns as f64 * 1e-9;
        let sum = host + t.self_secs(Kind::is_hook) + t.self_secs(Kind::is_workload);
        assert!((sum - 100e-9).abs() < 1e-15);
        assert_eq!(t.calls(Kind::is_hook), 2);
        assert_eq!(t.calls(Kind::is_workload), 1);
    }

    #[test]
    fn spans_record_parent_and_run() {
        let t = fixture();
        // Closing order: select_cpu, next_action, tick, run_until; ids are
        // opening order: run_until 0, next_action 1, select_cpu 2, tick 3.
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].kind, s[0].id, s[0].parent),
            (Kind::HookSelectCpu, 2, Some(1))
        );
        assert_eq!((s[1].kind, s[1].parent), (Kind::WlNextAction, Some(0)));
        assert_eq!((s[2].kind, s[2].parent), (Kind::HookTick, Some(0)));
        assert_eq!((s[3].kind, s[3].parent), (Kind::RunUntil, None));
        assert!(s.iter().all(|x| x.run == 7));
        let text = t.render_jsonl();
        assert_eq!(text.lines().count(), 1 + Kind::ALL.len() + 4);
        assert!(text.contains("\"name\":\"vsched.select_cpu\",\"run\":7,\"id\":2,\"parent\":1"));
    }

    #[test]
    fn live_spans_nest_through_the_shared_handle() {
        let tr = Tracer::shared(0);
        let v = span(&tr, Kind::RunUntil, || {
            span(&tr, Kind::WlTimer, || span(&tr, Kind::HookTimer, || 5))
        });
        assert_eq!(v, 5);
        let t = tr.borrow();
        let root = t.totals(Kind::RunUntil);
        let wl = t.totals(Kind::WlTimer);
        let hook = t.totals(Kind::HookTimer);
        assert_eq!(root.self_ns + wl.self_ns + hook.self_ns, root.total_ns);
        assert!(wl.total_ns >= hook.total_ns);
    }
}
