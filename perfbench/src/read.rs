//! The two read workloads, `hunt-cti` and `query-15x`: a fixed round of
//! ops over loaded stores, repeated until the run's time is up, each round
//! followed by restarts of the stores' durable images.

use std::time::Instant;

use raptor_cases::all_cases;
use threatraptor::common::error::Result;
use threatraptor::engine::exec::{to_length1_path_query, EngineStats, ExecMode};
use threatraptor::engine::ResultTable;
use threatraptor::tbql::parser::EQUIV_CORPUS;
use threatraptor::tbql::print::print_query;
use threatraptor::tbql::{analyze, parse_tbql};
use threatraptor::{obs, synthesize, SynthesisPlan, ThreatRaptor};

use crate::setup::{self, Image};
use crate::trace::Tracer;
use crate::util::{digest, Acc, Timings};

/// The variable-length path queries of the `bench_smoke` path-estimation
/// section: bounded and unbounded hop envelopes, final-hop operation
/// filters, op-less reachability and a non-file destination.
pub const PATH_QUERIES: &[&str] = &[
    "proc p ~>(1~3)[read] file f as e1 return p, f",
    "proc p ~>(2~4)[write] file f as e1 return p, f",
    "proc p ~>(1~2) file f as e1 return p, f",
    "proc p ~>(2~)[connect] ip i as e1 return p, i",
    "proc p ~>(1~4) proc q as e1 return p, q",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `ThreatRaptor::hunt(report)`: report → rendered rows.
    Hunt,
    /// TBQL text through `query_with_mode(Scheduled)`.
    Query,
    GiantSql,
    GiantCypher,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hunt => "hunt",
            Kind::Query => "query",
            Kind::GiantSql => "giant_sql",
            Kind::GiantCypher => "giant_cypher",
        }
    }

    fn mode(self) -> ExecMode {
        match self {
            Kind::Hunt | Kind::Query => ExecMode::Scheduled,
            Kind::GiantSql => ExecMode::GiantSql,
            Kind::GiantCypher => ExecMode::GiantCypher,
        }
    }
}

/// One op of a round. `digest` is recorded from the op's first run; every
/// later run must render the same rows.
pub struct Op {
    pub store: usize,
    pub kind: Kind,
    pub text: String,
    /// Counted in the primary op metrics (`op_ms_*`, `ops_per_s`).
    pub primary: bool,
    pub digest: u64,
}

pub struct Store {
    pub raptor: ThreatRaptor,
    pub image: Image,
    pub events: usize,
    pub entities: usize,
}

pub struct ReadSet {
    pub stores: Vec<Store>,
    pub ops: Vec<Op>,
    /// Restarts at the end of each round, rotating over the stores.
    pub restarts_per_round: usize,
    /// Ops checked before the timed loop (first runs and cross-mode
    /// comparisons) and how many of them failed.
    pub checked: u64,
    pub check_failed: u64,
}

/// Loads one store: generate, parse/reduce, bulk load, restart image.
fn store(
    acc: &mut Acc,
    trace: bool,
    records: impl FnOnce() -> Vec<threatraptor::audit::SyscallRecord>,
) -> Result<Store> {
    let log = setup::generate(acc, records);
    let raptor = setup::load(acc, &log)?;
    let image = setup::build_image(acc, &log, trace)?;
    Ok(Store { raptor, image, events: log.events.len(), entities: log.entities.len() })
}

/// Generated hosts per Table IV case in a `hunt-cti` run. A hunt's cost
/// depends on the case's generated noise: with one host per case the
/// hunt medians of ten seeds spread by 5-7%, while five runs of one seed
/// agree within 1%.
pub const CASE_HOSTS: usize = 2;

/// Set-up of `hunt-cti`: the 18 Table IV cases on [`CASE_HOSTS`] hosts
/// each, one store per case and host (store `i` holds case
/// `i / CASE_HOSTS`).
pub fn setup_hunt_cti(acc: &mut Acc, seed: u64, trace: bool) -> Result<Vec<Store>> {
    let mut stores = Vec::new();
    for spec in all_cases() {
        for s in setup::host_seeds(seed, CASE_HOSTS as u64) {
            stores.push(store(acc, trace, || setup::case_records(spec, s))?);
        }
    }
    Ok(stores)
}

/// Set-up of `query-15x`: the ~15x corpus scenario on [`setup::HOSTS`]
/// hosts, one store each.
pub fn setup_query_15x(acc: &mut Acc, seed: u64, trace: bool) -> Result<Vec<Store>> {
    setup::host_seeds(seed, setup::HOSTS)
        .map(|s| store(acc, trace, || setup::scaled_records(s)))
        .collect()
}

/// Runs an op the way a user would: one public call, rendered rows out.
pub fn run_plain(raptor: &ThreatRaptor, kind: Kind, text: &str) -> Result<Vec<Vec<String>>> {
    Ok(match kind {
        Kind::Hunt => raptor.hunt(text)?.results.rows,
        _ => raptor.query_with_mode(text, kind.mode())?.0.rows,
    })
}

/// Runs an op broken into the public calls `hunt_with_plan` and
/// `execute_text` make, one span around each, and records the per-layer
/// samples of the op. Returns the rows and the op's backend time (ns).
pub fn run_traced(
    tr: &mut Tracer,
    acc: &mut Acc,
    raptor: &ThreatRaptor,
    kind: Kind,
    text: &str,
) -> Result<(Vec<Vec<String>>, u64)> {
    let aq = if kind == Kind::Hunt {
        let (extraction, ns) = tr.call("extract", || raptor.extract_report(text));
        acc.push("extract.ms", ns as f64 / 1e6);
        let (q, ns) = tr.call("synthesis", || {
            synthesize(&extraction.graph, &SynthesisPlan::default()).map(|q| {
                let text = print_query(&q);
                (q, text)
            })
        });
        acc.push("synthesis.us", ns as f64 / 1e3);
        let (q, _text) = q?;
        let (aq, ns) = tr.call("tbql", || analyze(&q));
        acc.push("tbql.us", ns as f64 / 1e3);
        aq?
    } else {
        let (aq, ns) = tr.call("tbql", || parse_tbql(text).and_then(|q| analyze(&q)));
        if kind == Kind::Query {
            acc.push("tbql.us", ns as f64 / 1e3);
        }
        aq?
    };
    let engine = raptor.engine();
    let (r, exec_ns) = tr.call("engine.execute", || engine.execute_batch(&aq, kind.mode()));
    let (batch, mut stats) = r?;
    let (table, render_ns) =
        tr.call("engine.render", || ResultTable::from_batch_counted(&batch, &mut stats));
    let backend_ns: u64 = stats.queries.iter().map(|q| q.wall_ns).sum();
    match kind {
        Kind::Hunt | Kind::Query => {
            acc.push("engine.execute_ms", exec_ns as f64 / 1e6);
            acc.push("engine.self_ms", exec_ns.saturating_sub(backend_ns) as f64 / 1e6);
            acc.push("engine.render_us", render_ns as f64 / 1e3);
            acc.push("engine.requests", stats.data_queries as f64);
            let q_err = stats.estimates.iter().filter_map(|e| e.q_error()).fold(0.0, f64::max);
            if q_err > 0.0 {
                acc.push("engine.q_error", q_err);
            }
            record_typed(acc, &stats);
        }
        Kind::GiantSql | Kind::GiantCypher => {
            let built: usize = stats.queries.iter().map(|q| q.delta.items_built).sum();
            acc.push(giant_key(kind, "store_ms"), backend_ns as f64 / 1e6);
            acc.push(giant_key(kind, "built"), built as f64);
        }
    }
    Ok((table.rows, backend_ns))
}

/// Runs one traced op under its own root span; returns its rows and wall
/// (ms). A giant op's engine time is its wall minus its store call.
pub fn traced_op(
    tr: &mut Tracer,
    layers: &mut Acc,
    raptor: &ThreatRaptor,
    kind: Kind,
    text: &str,
) -> (Result<Vec<Vec<String>>>, f64) {
    tr.begin(kind.name());
    let r = run_traced(tr, layers, raptor, kind, text);
    let (wall, _) = tr.end();
    let wall_ms = wall as f64 / 1e6;
    if let (Ok((_, backend_ns)), Kind::GiantSql | Kind::GiantCypher) = (&r, kind) {
        layers.push(giant_key(kind, "engine_ms"), wall_ms - *backend_ns as f64 / 1e6);
    }
    (r.map(|(rows, _)| rows), wall_ms)
}

fn giant_key(kind: Kind, what: &str) -> &'static str {
    match (kind, what) {
        (Kind::GiantSql, "store_ms") => "giant_sql.store_ms",
        (Kind::GiantSql, "engine_ms") => "giant_sql.engine_ms",
        (Kind::GiantSql, _) => "giant_sql.built",
        (_, "store_ms") => "giant_cypher.store_ms",
        (_, "engine_ms") => "giant_cypher.engine_ms",
        _ => "giant_cypher.built",
    }
}

/// Records the typed store requests of one scheduled execution:
/// per-request and per-op store time, and the backend work counters.
pub fn record_typed(acc: &mut Acc, stats: &EngineStats) {
    let (mut rel_ns, mut graph_ns, mut rel_n, mut graph_n) = (0u64, 0u64, 0usize, 0usize);
    let (mut full, mut index, mut edges) = (0usize, 0usize, 0usize);
    for q in &stats.queries {
        let d = &q.delta;
        match q.backend {
            "relational" => {
                rel_ns += q.wall_ns;
                rel_n += 1;
                acc.push("rel.req_us", q.wall_ns as f64 / 1e3);
                acc.push("rel.scanned", d.items_scanned as f64);
                acc.push("rel.returned", q.rows.unwrap_or(0) as f64);
                acc.push("rel.seg_scanned", d.segments_scanned as f64);
                acc.push("rel.seg_pruned", d.segments_pruned as f64);
                full += d.full_scans;
                index += d.index_scans;
            }
            _ => {
                graph_ns += q.wall_ns;
                graph_n += 1;
                acc.push("graph.req_us", q.wall_ns as f64 / 1e3);
                edges += d.edges_traversed;
            }
        }
    }
    acc.push("rel.full_scans", full as f64);
    acc.push("rel.index_scans", index as f64);
    if rel_n > 0 {
        acc.push("rel.op_ms", rel_ns as f64 / 1e6);
    }
    if graph_n > 0 {
        acc.push("graph.op_ms", graph_ns as f64 / 1e6);
        acc.push("graph.edges", edges as f64);
    }
}

/// Builds the op round of a workload by running every op once: records
/// each op's digest and checks that the modes that must agree do. Every
/// restart image is reopened once too; its recovery counts go to `layers`.
pub fn prepare(stores: Vec<Store>, workload: &str, layers: &mut Acc) -> ReadSet {
    let mut set =
        ReadSet { stores, ops: Vec::new(), restarts_per_round: 4, checked: 0, check_failed: 0 };
    for store in &set.stores {
        set.checked += 1;
        match setup::restart(&store.image) {
            Ok((_, recovered, true)) => {
                let report =
                    recovered.recovery_report().expect("durable system has a recovery report");
                layers.push("recovery.rows_replayed", report.checkpoint_rows as f64);
                layers.push("recovery.wal_records_replayed", report.wal_records_replayed as f64);
            }
            Ok(_) => {
                eprintln!("restart image recovered a different store");
                set.check_failed += 1;
            }
            Err(e) => {
                eprintln!("restart image failed to open: {e}");
                set.check_failed += 1;
            }
        }
    }
    match workload {
        "hunt-cti" => {
            let cases = all_cases();
            for i in 0..set.stores.len() {
                let spec = cases[i / CASE_HOSTS];
                let raptor = &set.stores[i].raptor;
                set.checked += 1;
                let outcome = match raptor.hunt(spec.report) {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("{}: hunt failed: {e}", spec.id);
                        set.check_failed += 1;
                        continue;
                    }
                };
                let want = digest(&outcome.results.rows);
                let path_text = print_query(&to_length1_path_query(&outcome.query));
                set.ops.push(Op {
                    store: i,
                    kind: Kind::Hunt,
                    text: spec.report.into(),
                    primary: true,
                    digest: want,
                });
                set.add(i, Kind::Query, &path_text, false, Some(want));
                set.add(i, Kind::GiantSql, &outcome.query_text, false, Some(want));
                set.add(i, Kind::GiantCypher, &outcome.query_text, false, Some(want));
            }
        }
        _ => {
            set.restarts_per_round = set.stores.len();
            for host in 0..set.stores.len() {
                for q in EQUIV_CORPUS {
                    if let Some(want) = set.add(host, Kind::Query, q, true, None) {
                        set.add(host, Kind::GiantSql, q, false, Some(want));
                        set.add(host, Kind::GiantCypher, q, false, Some(want));
                    }
                }
                for q in PATH_QUERIES {
                    set.add(host, Kind::Query, q, true, None);
                }
                // The staged leak, hunted from its CTI report at 15x.
                if set.add(host, Kind::Hunt, setup::LEAK_REPORT, false, None) == Some(digest(&[])) {
                    eprintln!("leak hunt found nothing");
                    set.check_failed += 1;
                }
            }
        }
    }
    set
}

impl ReadSet {
    /// Runs an op once, checks it against `want` (another mode's rows),
    /// and adds it to the round. Returns its digest when it ran.
    fn add(
        &mut self,
        store: usize,
        kind: Kind,
        text: &str,
        primary: bool,
        want: Option<u64>,
    ) -> Option<u64> {
        self.checked += 1;
        match run_plain(&self.stores[store].raptor, kind, text) {
            Ok(rows) => {
                let d = digest(&rows);
                if want.is_some_and(|w| w != d) {
                    eprintln!("{} rows differ from the scheduled rows: {text}", kind.name());
                    self.check_failed += 1;
                }
                self.ops.push(Op { store, kind, text: text.into(), primary, digest: d });
                Some(d)
            }
            Err(e) => {
                eprintln!("{} failed: {e}: {text}", kind.name());
                self.check_failed += 1;
                None
            }
        }
    }

    /// Ops per round by kind, for the provenance record.
    pub fn mix(&self) -> String {
        let mut parts = Vec::new();
        for kind in [Kind::Hunt, Kind::Query, Kind::GiantSql, Kind::GiantCypher] {
            let n = self.ops.iter().filter(|o| o.kind == kind).count();
            let p = self.ops.iter().filter(|o| o.kind == kind && o.primary).count();
            if n > 0 {
                parts.push(format!("{n} {} ({p} primary)", kind.name()));
            }
        }
        parts.push(format!(
            "{} restart(s) per round, rotating over the stores",
            self.restarts_per_round
        ));
        parts.join(", ")
    }
}

/// Outcome counts of a timed loop.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// The timed loop, in whole rounds. Untraced ops feed `e2e`; in a traced
/// run every other round is traced and feeds `layers`, while the untraced
/// rounds give the baseline for the tracing overhead. A round's ops and
/// its restarts are a stretch each (see [`Timings`]).
pub fn run(
    set: &ReadSet,
    seconds: f64,
    trace: bool,
    e2e: &mut Timings,
    layers: &mut Acc,
    tr: &mut Tracer,
) -> Tally {
    let mut tally = Tally { attempted: set.checked, failed: set.check_failed };
    let start = Instant::now();
    let mut round = 0usize;
    while round < 2 || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && round % 2 == 1;
        obs::trace().set_enabled(traced);
        for (id, op) in set.ops.iter().enumerate() {
            tally.attempted += 1;
            let raptor = &set.stores[op.store].raptor;
            let (rows, wall_ms) = if traced {
                traced_op(tr, layers, raptor, op.kind, &op.text)
            } else {
                let t = Instant::now();
                let r = std::hint::black_box(run_plain(raptor, op.kind, &op.text));
                (r, setup::ms(t))
            };
            match rows {
                Ok(rows) if digest(&rows) == op.digest => {
                    let key = match (op.primary, op.kind, traced) {
                        (true, _, false) => "op_ms",
                        (true, _, true) => "traced_op_ms",
                        (false, Kind::GiantSql, false) => "giant_sql_ms",
                        (false, Kind::GiantCypher, false) => "giant_cypher_ms",
                        _ => continue,
                    };
                    e2e.push_op(key, id, wall_ms);
                }
                Ok(_) => {
                    eprintln!("{} returned different rows: {}", op.kind.name(), op.text);
                    tally.failed += 1;
                }
                Err(e) => {
                    eprintln!("{} failed: {e}: {}", op.kind.name(), op.text);
                    tally.failed += 1;
                }
            }
        }
        obs::trace().set_enabled(false);
        e2e.end_stretch();
        for k in 0..set.restarts_per_round {
            let id = (round * set.restarts_per_round + k) % set.stores.len();
            let store = &set.stores[id];
            tally.attempted += 1;
            match setup::restart(&store.image) {
                Ok((wall_ms, recovered, true)) => {
                    e2e.push_recovery("recovery_ms", id, wall_ms);
                    drop(recovered);
                }
                Ok(_) => {
                    eprintln!("restart recovered a different store");
                    tally.failed += 1;
                }
                Err(e) => {
                    eprintln!("restart failed: {e}");
                    tally.failed += 1;
                }
            }
        }
        e2e.end_stretch();
        round += 1;
    }
    tally
}
