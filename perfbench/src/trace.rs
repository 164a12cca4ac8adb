//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a layer-qualified name, the party whose thread recorded it,
//! the operation it belongs to, its wall time split into on-CPU, runqueue
//! and blocked time, and the channel counters it moved. Spans are kept in
//! memory and summarised when the run ends. Within one operation and one
//! party, the span named [`ROOT`] is the parent of every other span; its
//! self time is its wall time minus its children's.
//!
//! Recording is off unless switched on, so untimed and traced operations
//! run the same code apart from the span bookkeeping itself.

use crate::sys::{median, Interval, Mark};
use secyan_transport::CommStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Name of the per-operation root span.
pub const ROOT: &str = "op";
/// Operation id of spans that belong to no measured operation (set-up and
/// layer probes).
pub const NO_OP: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Party {
    Alice,
    Bob,
    /// The benchmark's own thread outside any two-party run.
    Main,
}

impl Party {
    pub fn name(self) -> &'static str {
        match self {
            Party::Alice => "alice",
            Party::Bob => "bob",
            Party::Main => "main",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub party: Party,
    pub op: usize,
    pub time: Interval,
    /// Channel counters moved inside the span, where a channel was in reach.
    pub comm: Option<CommStats>,
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::SeqCst)
}

/// An open span; `None` inside when recording is off.
pub struct Open(Option<(&'static str, Party, usize, Mark, Option<CommStats>)>);

/// Open a span on the calling thread. `comm` is the channel snapshot at
/// the span's start, if the span has a channel.
pub fn open(name: &'static str, party: Party, op: usize, comm: Option<CommStats>) -> Open {
    Open(enabled().then(|| (name, party, op, Mark::now(), comm)))
}

impl Open {
    /// Close the span with the channel snapshot at its end.
    pub fn close(self, comm: Option<CommStats>) {
        if let Some((name, party, op, start, c0)) = self.0 {
            let span = Span {
                name,
                party,
                op,
                time: Interval::between(&start, &Mark::now()),
                comm: c0.zip(comm).map(|(a, b)| b.since(&a)),
            };
            SPANS.lock().expect("span store poisoned").push(span);
        }
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned").clone()
}

/// Median wall seconds of the spans named `name` recorded by `party`.
pub fn median_wall(spans: &[Span], name: &str, party: Party) -> f64 {
    let w: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.party == party)
        .map(|s| s.time.wall_s)
        .collect();
    median(&w)
}

/// Self time of each measured operation's root span (wall minus the
/// walls of the spans it parents), keyed by (party, op).
pub fn root_self_times(spans: &[Span]) -> BTreeMap<(Party, usize), f64> {
    let mut out: BTreeMap<(Party, usize), f64> = spans
        .iter()
        .filter(|s| s.name == ROOT && s.op != NO_OP)
        .map(|s| ((s.party, s.op), s.time.wall_s))
        .collect();
    for s in spans.iter().filter(|s| s.name != ROOT && s.op != NO_OP) {
        if let Some(v) = out.get_mut(&(s.party, s.op)) {
            *v -= s.time.wall_s;
        }
    }
    out
}

/// Median self time of the receiver's (Alice's) root spans.
pub fn receiver_root_self_s(spans: &[Span]) -> f64 {
    let selfs: Vec<f64> = root_self_times(spans)
        .into_iter()
        .filter(|((p, _), _)| *p == Party::Alice)
        .map(|(_, v)| v)
        .collect();
    median(&selfs)
}

/// One printed line per (span name, party, measured operation or not):
/// count, median wall, self, busy, runqueue and blocked seconds, and
/// median bytes moved. Spans outside measured operations (set-up and
/// probes) are marked `probe`.
pub fn summary(spans: &[Span]) -> Vec<String> {
    let selfs = root_self_times(spans);
    let mut groups: BTreeMap<(&str, Party, bool), Vec<&Span>> = BTreeMap::new();
    for s in spans {
        groups
            .entry((s.name, s.party, s.op == NO_OP))
            .or_default()
            .push(s);
    }
    let mut lines = vec![format!(
        "{:<22} {:<5} {:<5} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "span", "party", "in", "n", "wall_s", "self_s", "busy_s", "runq_s", "blocked_s", "bytes"
    )];
    for ((name, party, probe), group) in groups {
        let pick =
            |f: &dyn Fn(&Span) -> f64| median(&group.iter().map(|s| f(s)).collect::<Vec<_>>());
        let self_s = if name == ROOT && probe {
            f64::NAN
        } else if name == ROOT {
            let v: Vec<f64> = group
                .iter()
                .filter_map(|s| selfs.get(&(s.party, s.op)).copied())
                .collect();
            median(&v)
        } else {
            pick(&|s| s.time.wall_s)
        };
        let bytes = if group.iter().any(|s| s.comm.is_some()) {
            format!(
                "{:.0}",
                pick(&|s| s.comm.map_or(0.0, |c| c.total_bytes() as f64))
            )
        } else {
            "-".into()
        };
        lines.push(format!(
            "{:<22} {:<5} {:<5} {:>4} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>12}",
            name,
            party.name(),
            if probe { "probe" } else { "ops" },
            group.len(),
            pick(&|s| s.time.wall_s),
            self_s,
            pick(&|s| s.time.busy_s),
            pick(&|s| s.time.runq_s),
            pick(&|s| s.time.blocked_s()),
            bytes
        ));
    }
    lines
}
