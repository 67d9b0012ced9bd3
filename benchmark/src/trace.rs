//! In-memory spans around the calls into each layer.
//!
//! A span wraps one call, or one loop of calls with its `count` — never one
//! span per record. Spans are recorded only in the traced run, kept in
//! memory and written out when the run ends; the calls are timed the same
//! way in both runs, so the difference between the runs is the cost of
//! recording.

use crate::alloc;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call enters (`stream`, `compute`, `olap`, `sql`,
    /// `storage`, `flinksql`), or `bench` for the benchmark's own glue.
    pub layer: &'static str,
    /// `None` for an isolated probe run after the rounds.
    pub round: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Records, rows or queries the call handled.
    pub count: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// The host's slowdown while the span ran (see `reference.rs`), stamped
    /// once the reference sample after it is taken; 1 until then.
    pub slowdown: f64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span's duration minus the part its child spans cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] = out[p as usize].saturating_sub(s.ns());
        }
    }
    out
}

/// Totals of one span name within one round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Reference nanoseconds: each span's time over its slowdown.
    pub ns: f64,
    pub count: u64,
    pub allocs: u64,
}

impl Total {
    pub fn of(spans: &[&Span]) -> Total {
        spans.iter().fold(Total::default(), |t, s| Total {
            ns: t.ns + s.ns() as f64 / s.slowdown,
            count: t.count + s.count,
            allocs: t.allocs + s.allocs,
        })
    }

    pub fn us_per_unit(&self) -> f64 {
        self.ns / 1e3 / self.count.max(1) as f64
    }

    pub fn allocs_per_unit(&self) -> f64 {
        self.allocs as f64 / self.count.max(1) as f64
    }
}

/// The clock of one round, started by [`Tracer::begin_round`].
pub struct RoundClock {
    start: Instant,
    allocs: u64,
    span: Option<u32>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    round: Option<u32>,
    parent: Option<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            round: None,
            parent: None,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the timed part of a round; when tracing, opens the round's
    /// root span, whose self time is the benchmark's own glue.
    pub fn begin_round(&mut self, round: u32) -> RoundClock {
        self.round = Some(round);
        let span = self.on.then(|| {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name: "round",
                layer: "bench",
                round: self.round,
                start_ns,
                end_ns: start_ns,
                parent: None,
                count: 1,
                allocs: 0,
                alloc_bytes: 0,
                slowdown: 1.0,
            });
            (self.spans.len() - 1) as u32
        });
        self.parent = span;
        RoundClock {
            start: Instant::now(),
            allocs: alloc::counters().0,
            span,
        }
    }

    /// Stop the round's clock: `(wall seconds, heap allocations)`.
    pub fn end_round(&mut self, clock: RoundClock) -> (f64, u64) {
        let wall = clock.start.elapsed().as_secs_f64();
        let allocs = alloc::counters().0 - clock.allocs;
        if let Some(i) = clock.span {
            let end_ns = self.now_ns();
            let root = &mut self.spans[i as usize];
            root.end_ns = end_ns;
            root.allocs = allocs;
        }
        self.round = None;
        self.parent = None;
        (wall, allocs)
    }

    /// Time one call (or one loop of `count` calls) into `layer`; returns
    /// its result and its seconds, and records a span when tracing.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let (a0, b0) = alloc::counters();
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        if self.on {
            let (a1, b1) = alloc::counters();
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                layer,
                round: self.round,
                start_ns: end_ns.saturating_sub(elapsed.as_nanos() as u64),
                end_ns,
                parent: self.parent,
                count,
                allocs: a1 - a0,
                alloc_bytes: b1 - b0,
                slowdown: 1.0,
            });
        }
        (out, elapsed.as_secs_f64())
    }

    /// Stamp the spans recorded since there were `first` of them with the
    /// slowdown the reference samples around them measured.
    pub fn stamp_from(&mut self, first: usize, slowdown: f64) {
        for s in &mut self.spans[first..] {
            s.slowdown = slowdown;
        }
    }

    /// The spans named `layer`/`name`, grouped by traced round.
    pub fn by_round(&self, layer: &str, name: &str) -> Vec<Vec<&Span>> {
        let mut rounds: Vec<(u32, Vec<&Span>)> = Vec::new();
        for s in &self.spans {
            let Some(round) = s.round else { continue };
            if s.layer != layer || s.name != name {
                continue;
            }
            if rounds.last().map(|(r, _)| *r) != Some(round) {
                rounds.push((round, Vec::new()));
            }
            rounds.last_mut().expect("pushed above").1.push(s);
        }
        rounds.into_iter().map(|(_, spans)| spans).collect()
    }

    /// Self time per layer over all traced rounds, and the rounds' wall.
    pub fn layer_budget(&self) -> (Vec<(&'static str, u64)>, u64) {
        let own = self_ns(&self.spans);
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        let mut wall = 0;
        for (s, own_ns) in self.spans.iter().zip(own) {
            if s.round.is_none() {
                continue;
            }
            if s.parent.is_none() {
                wall += s.ns();
            }
            match layers.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, ns)) => *ns += own_ns,
                None => layers.push((s.layer, own_ns)),
            }
        }
        (layers, wall)
    }

    /// One JSON object per line, in recording order; `self_ns` is derived.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for (s, own) in self.spans.iter().zip(self_ns(&self.spans)) {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"count\":{},\"allocs\":{},\"alloc_bytes\":{},\"slowdown\":{},\
                 \"self_ns\":{}}}",
                s.name,
                s.layer,
                opt(s.round),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                s.count,
                s.allocs,
                s.alloc_bytes,
                s.slowdown,
                own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "x",
            layer,
            round: Some(0),
            start_ns,
            end_ns,
            parent,
            count: 1,
            allocs: 0,
            alloc_bytes: 0,
            slowdown: 1.0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("stream", 5, 35, Some(0)),
            span("olap", 40, 90, Some(0)),
            span("olap", 50, 60, Some(2)),
        ];
        assert_eq!(self_ns(&spans), vec![20, 30, 40, 10]);
    }

    #[test]
    fn layer_budget_sums_to_the_round_wall() {
        let mut tr = Tracer::new(true);
        tr.spans = vec![
            span("bench", 0, 100, None),
            span("stream", 5, 35, Some(0)),
            span("olap", 40, 90, Some(0)),
        ];
        // a probe outside any round is not part of the budget
        tr.spans.push(Span {
            round: None,
            ..span("sql", 200, 300, None)
        });
        let (layers, wall) = tr.layer_budget();
        assert_eq!(wall, 100);
        assert_eq!(layers, vec![("bench", 20), ("stream", 30), ("olap", 50)]);
        assert_eq!(layers.iter().map(|(_, ns)| ns).sum::<u64>(), wall);
    }

    #[test]
    fn untraced_calls_are_timed_but_leave_no_span() {
        let mut tr = Tracer::new(false);
        let clock = tr.begin_round(0);
        let (v, secs) = tr.call("sql", "q", 1, || vec![1u8; 16].len());
        let (wall, allocs) = tr.end_round(clock);
        assert_eq!(v, 16);
        assert!(secs >= 0.0 && wall >= secs);
        assert!(allocs >= 1);
        assert!(tr.spans.is_empty());

        let mut tr = Tracer::new(true);
        let clock = tr.begin_round(3);
        tr.call("sql", "q", 2, || ());
        tr.call("sql", "q", 3, || ());
        tr.end_round(clock);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].parent, Some(0));
        let rounds = tr.by_round("sql", "q");
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].len(), 2);
        assert_eq!(Total::of(&rounds[0]).count, 5);

        // stamping divides the host's slowdown out of the totals
        let raw = Total::of(&tr.by_round("sql", "q")[0]).ns;
        tr.stamp_from(1, 2.0);
        assert_eq!(tr.spans[0].slowdown, 1.0);
        assert_eq!(Total::of(&tr.by_round("sql", "q")[0]).ns, raw / 2.0);
        assert!(tr.spans[0].ns() >= tr.spans[1].ns() + tr.spans[2].ns());
    }
}
