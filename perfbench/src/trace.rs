//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer's public function; the program itself carries no tracing. A span
//! has a name, start, end, parent and the id of the request it belongs to.
//! Spans stay in memory while the run measures and are written out once,
//! at the end. A span's self time is its duration minus the durations of
//! its children, which always lie inside it.

use crate::report::{self, Outcome};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Untraced/traced block pairs of a traced run: alternating them lets a
/// drift in the host's speed hit both sides alike.
pub const BLOCKS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Threads share an epoch so merged logs line up.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Duration of the most recently opened span.
    pub fn last_dur_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::dur_ns)
    }
}

/// The spans of several tracers in one list, each parent index moved along
/// with its tracer's spans.
pub fn merge<'a>(tracers: impl Iterator<Item = &'a Tracer>) -> Vec<Span> {
    let mut out = Vec::new();
    for t in tracers {
        let base = out.len();
        out.extend(t.spans().iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..*s
        }));
    }
    out
}

/// Durations and self times of every span with one name.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub dur_ns: Vec<u64>,
    pub self_ns: Vec<u64>,
}

impl LayerTimes {
    pub fn median_us(&self) -> f64 {
        crate::report::median(
            &self
                .dur_ns
                .iter()
                .map(|&d| d as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    }

    pub fn median_self_us(&self) -> f64 {
        crate::report::median(
            &self
                .self_ns
                .iter()
                .map(|&d| d as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Groups spans by name with their durations and self times.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTimes> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTimes> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.dur_ns.push(s.dur_ns());
        e.self_ns.push(self_ns);
    }
    out
}

/// Writes the span log as tab-separated lines:
/// `id  request  parent  name  start_ns  end_ns  self_ns`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\trequest\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            w,
            "{i}\t{}\t{parent}\t{}\t{}\t{}\t{self_ns}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Time each root span's direct children do not cover, by root name:
/// `(uncovered ns, root ns)` summed over the roots of that name. Only
/// roots with children count; a root's uncovered time is its self time,
/// the part of a request or replay no layer call accounts for.
pub fn uncovered(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && has_child[i] {
            let e = out.entry(s.name).or_default();
            e.0 += selfs[i];
            e.1 += s.dur_ns();
        }
    }
    out
}

/// Reports the per-span table, the tracing overhead (untraced against
/// traced throughput on the same requests) and the reconciliation: the
/// share of the root spans' time that their layer children leave
/// uncovered, which must stay within the spread of the run's own
/// per-round request times.
pub fn summary(spans: &[Span], request_ns: &[u64], untraced: f64, traced: f64, out: &mut Outcome) {
    let chunk = (request_ns.len() / report::ROUNDS).max(1);
    let per_round: Vec<f64> = request_ns
        .chunks(chunk)
        .map(|c| c.iter().sum::<u64>() as f64 / c.len() as f64)
        .collect();
    let spread = report::iqr_share(&per_round) * 100.0;
    for (name, l) in by_layer(spans) {
        out.note(format!(
            "span {name:<22} n={:<7} median {:>9.1} us  self {:>9.1} us  total self {:>9.1} ms",
            l.dur_ns.len(),
            l.median_us(),
            l.median_self_us(),
            l.self_ns.iter().sum::<u64>() as f64 / 1e6
        ));
    }
    let roots = uncovered(spans);
    for (name, (gap, total)) in &roots {
        out.note(format!(
            "trace: {:.3}% of the {name} spans' {:.1} ms is not covered by their layer children",
            *gap as f64 / (*total).max(1) as f64 * 100.0,
            *total as f64 / 1e6
        ));
    }
    let (gap, total) = roots
        .values()
        .fold((0u64, 0u64), |(g, t), (rg, rt)| (g + rg, t + rt));
    let unattributed = gap as f64 / total.max(1) as f64 * 100.0;
    out.layer("trace.untraced_throughput_ops_s", untraced, "1/s");
    out.layer("trace.traced_throughput_ops_s", traced, "1/s");
    out.layer(
        "trace.overhead_pct",
        (untraced - traced) / untraced.max(1e-9) * 100.0,
        "%",
    );
    out.layer("trace.unattributed_pct", unattributed, "%");
    out.layer("trace.round_spread_pct", spread, "%");
    out.note(format!(
        "trace: {} spans; layer self times cover {:.3}% of the root spans \
         (unattributed {unattributed:.3}%, round spread {spread:.3}%): {}",
        spans.len(),
        100.0 - unattributed,
        if unattributed <= spread {
            "reconciled"
        } else {
            "NOT reconciled"
        }
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "root",
                req: 1,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                req: 1,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                req: 1,
                parent: Some(0),
                start_ns: 50,
                end_ns: 90,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
    }

    #[test]
    fn uncovered_is_the_roots_self_time() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            req: 1,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
            span("request", None, 100, 150),
            span("a", Some(3), 100, 150),
            // A root without children is a layer call, not a request.
            span("lone", None, 150, 160),
        ];
        let u = uncovered(&spans);
        assert_eq!(u.len(), 1);
        assert_eq!(u["request"], (30, 150));
    }

    #[test]
    fn merge_moves_parents_with_their_tracer() {
        let epoch = Instant::now();
        let mut tracers = vec![Tracer::new(epoch), Tracer::new(epoch)];
        for t in &mut tracers {
            let root = t.begin("client", 0, None);
            t.leaf("op", 0, Some(root), || ());
            t.end(root);
        }
        let spans = merge(tracers.iter());
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
    }
}
