//! The traced run's span recorder.
//!
//! The benchmark records its own spans around each public call it makes
//! into a layer (name, start, end, parent span, op id), keeps them in
//! memory, and writes them out at the end as Chrome trace-event JSON
//! (viewable in https://ui.perfetto.dev). The spans the program already
//! emits (`obs::trace()`, the `RAPTOR_TRACE` ring) are collected per op
//! and exported beside them on their own tracks.

use std::io::Write as _;

use threatraptor::obs;

use crate::util::json_str;

/// Ops whose spans go into the exported trace file (the metrics use every
/// traced op; the file keeps the first ones so it stays small).
const EXPORT_OPS: u64 = 400;

struct Span {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    program: Vec<(u64, obs::Span)>,
    next_id: u64,
    op: u64,
    /// Index in `spans` of the current op's root span.
    op_root: usize,
    op_start: u64,
    /// Σ wall of every traced op, ns.
    pub op_ns: u64,
    /// Σ time inside layer spans (the benchmark's child spans plus the
    /// program-span splits a workload adds), ns.
    pub covered_ns: u64,
}

impl Tracer {
    /// Opens the root span of one op.
    pub fn begin(&mut self, name: &'static str) {
        self.op += 1;
        self.next_id += 1;
        self.op_root = self.spans.len();
        self.op_start = obs::now_ns();
        self.spans.push(Span {
            id: self.next_id,
            parent: 0,
            op: self.op,
            name,
            start_ns: self.op_start,
            end_ns: self.op_start,
        });
        obs::trace().clear();
    }

    /// Closes the current op's root span and gathers the program spans
    /// recorded during it. Returns the op wall (ns) and those spans.
    pub fn end(&mut self) -> (u64, Vec<obs::Span>) {
        let end = obs::now_ns();
        self.spans[self.op_root].end_ns = end;
        let wall = end - self.op_start;
        self.op_ns += wall;
        let program = obs::trace().snapshot();
        obs::trace().clear();
        if self.op <= EXPORT_OPS {
            self.program.extend(program.iter().map(|s| (self.op, *s)));
        }
        (wall, program)
    }

    /// Runs `f` inside a child span of the current op; returns its value
    /// and duration (ns). The duration counts as covered layer time.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.next_id += 1;
        let id = self.next_id;
        let start = obs::now_ns();
        let out = f();
        let end = obs::now_ns();
        self.spans.push(Span {
            id,
            parent: self.spans[self.op_root].id,
            op: self.op,
            name,
            start_ns: start,
            end_ns: end,
        });
        self.covered_ns += end - start;
        (out, end - start)
    }

    /// Σ layer time over Σ op wall, percent.
    pub fn coverage_pct(&self) -> f64 {
        crate::util::ratio(self.covered_ns as f64 * 100.0, self.op_ns as f64)
    }

    /// Writes the first [`EXPORT_OPS`] ops as Chrome trace-event JSON:
    /// the benchmark's spans on track 1, the program's spans on tracks 2+
    /// (one track per concurrently running span tree).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut events = Vec::new();
        let us = |ns: u64| ns as f64 / 1000.0;
        for s in self.spans.iter().filter(|s| s.op <= EXPORT_OPS) {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                json_str(s.name),
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                s.op,
                s.id,
                s.parent
            ));
        }
        // Program spans: a tree whose root started on another thread may
        // overlap the caller's tree, so each root gets the first track that
        // is free at its start; children inherit their root's track.
        let mut lanes_end: Vec<u64> = Vec::new();
        let mut lane_of: std::collections::HashMap<u64, usize> = Default::default();
        let mut prog: Vec<&(u64, obs::Span)> = self.program.iter().collect();
        prog.sort_by_key(|(_, s)| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        for (op, s) in prog {
            let lane = match lane_of.get(&s.parent) {
                Some(&l) => l,
                None => {
                    let free = lanes_end.iter().position(|&e| e <= s.start_ns);
                    let l = free.unwrap_or_else(|| {
                        lanes_end.push(0);
                        lanes_end.len() - 1
                    });
                    lanes_end[l] = s.start_ns + s.dur_ns;
                    l
                }
            };
            lane_of.insert(s.id, lane);
            let label = s.label.as_str();
            let name =
                if label.is_empty() { s.name.to_string() } else { format!("{} [{label}]", s.name) };
            events.push(format!(
                "{{\"name\":{},\"cat\":\"program\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                json_str(&name),
                us(s.start_ns),
                us(s.dur_ns),
                lane + 2,
                op,
                s.id,
                s.parent
            ));
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, e) in events.iter().enumerate() {
            let sep = if i + 1 < events.len() { "," } else { "" };
            writeln!(f, "{e}{sep}")?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}
