//! The write workload, `stream-15x`: the ~15x corpus log streamed from
//! empty into a durable session over `MemFs` with 13 standing queries,
//! one pass after another. Each pass ends with an analyst's look back over
//! the streamed store (the leak hunt, the 13 queries in batch and the 8
//! corpus queries in both giant modes), then drops the session and
//! recovers it from its image.

use std::sync::Arc;
use std::time::Instant;

use threatraptor::audit::ParsedLog;
use threatraptor::common::error::Result;
use threatraptor::common::io::MemFs;
use threatraptor::engine::{ResultTable, CKPT_FILE, WAL_FILE};
use threatraptor::obs::{self, MetricValue};
use threatraptor::streaming::{EpochPolicy, EpochReport, EpochStream};
use threatraptor::tbql::parser::EQUIV_CORPUS;
use threatraptor::{DurablePolicy, ThreatRaptor};

use crate::read::{self, Kind, Tally, PATH_QUERIES};
use crate::setup;
use crate::trace::Tracer;
use crate::util::{digest, Acc, Timings};

/// Events per epoch.
pub const EPOCH_EVENTS: usize = 128;

/// Recoveries of each pass's image.
pub const RESTARTS_PER_PASS: usize = 6;

/// Look-backs over the streamed store per pass.
pub const LOOK_BACKS_PER_PASS: usize = 3;

/// Epochs per calibration stretch (about 50 ms of ingest).
const EPOCHS_PER_STRETCH: u64 = 8;

/// Records the write path of one committed epoch from the program's spans
/// and the epoch report: insert (`stream.ingest`), standing step
/// (`stream.epoch` minus insert), and WAL commit (the rest of the call,
/// including any periodic checkpoint). Returns the span-covered time (ns).
pub fn record_epoch_write_path(
    acc: &mut Acc,
    wall_ns: u64,
    spans: &[obs::Span],
    report: &EpochReport,
) -> u64 {
    let dur = |name: &str| spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns).sum::<u64>();
    let (epoch, ingest) = (dur("stream.epoch"), dur("stream.ingest"));
    let standing = epoch.saturating_sub(ingest);
    acc.push("stream.insert_ms", ingest as f64 / 1e6);
    acc.push("stream.insert_ns", ingest as f64);
    acc.push("stream.events", report.events_ingested as f64);
    acc.push("stream.inserted", report.ingest_stats.items_inserted as f64);
    acc.push("stream.standing_ms", standing as f64 / 1e6);
    acc.push("durable.commit_ms", wall_ns.saturating_sub(epoch) as f64 / 1e6);
    // The standing path records its requests and work counters but not
    // their wall time, so store time inside the standing step is not split.
    let requests: usize = report.deltas.iter().map(|d| d.stats.data_queries).sum();
    let scanned: usize = report.deltas.iter().map(|d| d.stats.backend.items_scanned).sum();
    acc.push("standing.requests", requests as f64);
    acc.push("standing.rows_scanned", scanned as f64);
    epoch
}

/// The standing queries: the 8 corpus queries and the 5 path queries.
fn standing_queries() -> Vec<(String, &'static str)> {
    let corpus = EQUIV_CORPUS.iter().enumerate().map(|(i, q)| (format!("q{i}"), *q));
    let paths = PATH_QUERIES.iter().enumerate().map(|(i, q)| (format!("p{i}"), *q));
    corpus.chain(paths).collect()
}

/// One op of the end-of-pass look back, with the digest of its rows on a
/// bulk load of the same log.
struct Retro {
    kind: Kind,
    text: String,
    digest: u64,
}

/// One generated host: its log, and the digests of the standing queries'
/// and the look-back ops' rows on a bulk load of the same log.
pub struct Host {
    pub log: ParsedLog,
    standing: Vec<u64>,
    retro: Vec<Retro>,
}

pub struct StreamSet {
    /// Passes alternate over the hosts.
    pub hosts: Vec<Host>,
    pub checked: u64,
    pub check_failed: u64,
}

/// Hosts of the ~15x scenario in a `stream-15x` run (see
/// [`setup::HOSTS`]); each pass streams one of them.
const HOSTS: u64 = 2;

/// Set-up of `stream-15x`: per host, generate and parse/reduce the log and
/// bulk load it (the reference every streamed result is checked against).
pub fn setup(acc: &mut Acc, seed: u64) -> Result<Vec<(ParsedLog, ThreatRaptor)>> {
    setup::host_seeds(seed, HOSTS)
        .map(|s| {
            let log = setup::generate(acc, || setup::scaled_records(s));
            let bulk = setup::load(acc, &log)?;
            Ok((log, bulk))
        })
        .collect()
}

/// Computes the reference rows on each host's bulk load, checking that
/// the scheduled, giant-SQL and giant-Cypher modes agree, then drops the
/// bulk loads.
pub fn prepare(loaded: Vec<(ParsedLog, ThreatRaptor)>) -> StreamSet {
    let mut set = StreamSet { hosts: Vec::new(), checked: 0, check_failed: 0 };
    for (log, bulk) in loaded {
        let host = reference(&mut set, log, &bulk);
        set.hosts.push(host);
    }
    set
}

/// Runs one reference op on a bulk load; the digest of its rows.
fn reference_op(set: &mut StreamSet, bulk: &ThreatRaptor, kind: Kind, text: &str) -> Option<u64> {
    set.checked += 1;
    match read::run_plain(bulk, kind, text) {
        Ok(rows) => Some(digest(&rows)),
        Err(e) => {
            eprintln!("reference {} failed: {e}: {text}", kind.name());
            set.check_failed += 1;
            None
        }
    }
}

fn reference(set: &mut StreamSet, log: ParsedLog, bulk: &ThreatRaptor) -> Host {
    let mut host = Host { log, standing: Vec::new(), retro: Vec::new() };
    let run = |set: &mut StreamSet, kind: Kind, text: &str| reference_op(set, bulk, kind, text);
    for (_, text) in standing_queries() {
        host.standing.push(run(set, Kind::Query, text).unwrap_or(0));
    }
    match run(set, Kind::Hunt, setup::LEAK_REPORT) {
        Some(d) if d != digest(&[]) => {
            host.retro.push(Retro { kind: Kind::Hunt, text: setup::LEAK_REPORT.into(), digest: d });
        }
        _ => {
            eprintln!("reference leak hunt failed or found nothing");
            set.check_failed += 1;
        }
    }
    for q in PATH_QUERIES {
        if let Some(d) = run(set, Kind::Query, q) {
            host.retro.push(Retro { kind: Kind::Query, text: q.to_string(), digest: d });
        }
    }
    for q in EQUIV_CORPUS {
        let Some(want) = run(set, Kind::Query, q) else { continue };
        host.retro.push(Retro { kind: Kind::Query, text: q.to_string(), digest: want });
        for kind in [Kind::GiantSql, Kind::GiantCypher] {
            if let Some(d) = run(set, kind, q) {
                if d != want {
                    eprintln!("reference {} rows differ from scheduled: {q}", kind.name());
                    set.check_failed += 1;
                }
                host.retro.push(Retro { kind, text: q.to_string(), digest: d });
            }
        }
    }
    host
}

impl StreamSet {
    /// Look-back ops per pass.
    pub fn retro_len(&self) -> usize {
        LOOK_BACKS_PER_PASS * self.hosts.first().map_or(0, |h| h.retro.len())
    }
}

fn counter(name: &str) -> u64 {
    match obs::metrics().snapshot().get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// The timed loop: whole passes until the run's time is up. In a traced
/// run every other pass is traced. Every [`EPOCHS_PER_STRETCH`] epochs, each
/// look back and each restart is a stretch (see [`Timings`]).
pub fn run(
    set: &StreamSet,
    seconds: f64,
    trace: bool,
    e2e: &mut Timings,
    layers: &mut Acc,
    tr: &mut Tracer,
) -> Tally {
    let mut tally = Tally { attempted: set.checked, failed: set.check_failed };
    let start = Instant::now();
    let min_passes = if trace { 2 } else { 1 };
    let mut pass = 0usize;
    while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && pass % 2 == 1;
        let host = pass % set.hosts.len();
        if let Err(e) = run_pass(&set.hosts[host], host, traced, e2e, layers, tr, &mut tally) {
            eprintln!("pass {pass} failed: {e}");
            tally.attempted += 1;
            tally.failed += 1;
            e2e.end_stretch();
        }
        pass += 1;
    }
    tally
}

fn run_pass(
    h: &Host,
    host: usize,
    traced: bool,
    e2e: &mut Timings,
    layers: &mut Acc,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<()> {
    let policy = DurablePolicy::default();
    let fs = Arc::new(MemFs::new());
    let mut raptor = ThreatRaptor::open_with_fs(fs.clone(), policy)?;
    let queries = standing_queries();
    {
        let session = raptor.durable_mut().expect("open_with_fs builds a durable system");
        for (name, text) in &queries {
            session.register(name, text)?;
        }
    }
    let (hits0, misses0) =
        (counter("raptor_path_frontier_hits_total"), counter("raptor_path_frontier_misses_total"));
    obs::trace().set_enabled(traced);
    let session = raptor.durable_mut().expect("open_with_fs builds a durable system");
    let mut epoch_events = Vec::new();
    let mut delta_rows = 0usize;
    for batch in EpochStream::new(&h.log, EpochPolicy::ByCount(EPOCH_EVENTS)) {
        tally.attempted += 1;
        let (r, wall_ns) = if traced {
            tr.begin("epoch");
            let r = session.ingest_batch(&batch);
            let (wall, spans) = tr.end();
            if let Ok(Some(report)) = &r {
                tr.covered_ns += record_epoch_write_path(layers, wall, &spans, report);
            }
            (r, wall)
        } else {
            let t = Instant::now();
            let r = session.ingest_batch(&batch);
            (r, t.elapsed().as_nanos() as u64)
        };
        match r {
            Ok(Some(report)) => {
                let key = if traced { "traced_op_ms" } else { "op_ms" };
                e2e.push_op(key, host * 100_000 + batch.epoch as usize, wall_ns as f64 / 1e6);
                if batch.epoch % EPOCHS_PER_STRETCH == EPOCHS_PER_STRETCH - 1 {
                    e2e.end_stretch();
                }
                delta_rows += report.deltas.iter().map(|d| d.delta.n_rows()).sum::<usize>();
                epoch_events.push(batch.events.len());
            }
            Ok(None) => {
                eprintln!("epoch {} was deduplicated", batch.epoch);
                tally.failed += 1;
            }
            Err(e) => {
                obs::trace().set_enabled(false);
                return Err(e);
            }
        }
    }
    e2e.end_stretch();

    // Each standing query's accumulated rows equal a batch run on a bulk
    // load of the same log.
    let session = raptor.durable().expect("durable system");
    let live: Vec<u64> = session
        .session()
        .queries()
        .iter()
        .map(|q| digest(&ResultTable::from_batch(&q.cumulative_batch()).rows))
        .collect();
    for (i, (name, _)) in queries.iter().enumerate() {
        tally.attempted += 1;
        if live.get(i) != h.standing.get(i) {
            eprintln!("standing query {name} differs from the batch run");
            tally.failed += 1;
        }
    }

    // The look back over the streamed store, repeated for enough samples
    // of each op per run.
    for _ in 0..LOOK_BACKS_PER_PASS {
        for (id, op) in h.retro.iter().enumerate() {
            tally.attempted += 1;
            let (rows, wall_ms) = if traced {
                read::traced_op(tr, layers, &raptor, op.kind, &op.text)
            } else {
                let t = Instant::now();
                let r = std::hint::black_box(read::run_plain(&raptor, op.kind, &op.text));
                (r, setup::ms(t))
            };
            match rows {
                Ok(rows) if digest(&rows) == op.digest => {
                    if !traced && matches!(op.kind, Kind::GiantSql | Kind::GiantCypher) {
                        let key = if op.kind == Kind::GiantSql {
                            "giant_sql_ms"
                        } else {
                            "giant_cypher_ms"
                        };
                        e2e.push_op(key, host * 1_000 + id, wall_ms);
                    }
                }
                Ok(_) => {
                    eprintln!(
                        "{} on the streamed store differs from the bulk load: {}",
                        op.kind.name(),
                        op.text
                    );
                    tally.failed += 1;
                }
                Err(e) => {
                    eprintln!("{} failed on the streamed store: {e}", op.kind.name());
                    tally.failed += 1;
                }
            }
        }
        e2e.end_stretch();
    }
    obs::trace().set_enabled(false);

    let rows = raptor.engine().stores.rel.total_rows();
    let nodes = raptor.engine().stores.graph.node_count();
    if traced {
        let events: usize = epoch_events.iter().sum();
        let ckpt_epochs =
            (epoch_events.len() as u64 / policy.checkpoint_every.max(1)) * policy.checkpoint_every;
        let ckpt_events: usize = epoch_events.iter().take(ckpt_epochs as usize).sum();
        layers.push("durable.wal_bytes", fs.snapshot(WAL_FILE).len() as f64);
        layers.push("durable.wal_events", (events - ckpt_events) as f64);
        layers.push("durable.ckpt_bytes", fs.snapshot(CKPT_FILE).len() as f64);
        layers.push("durable.ckpt_events", ckpt_events as f64);
        layers.push("standing.delta_rows", delta_rows as f64);
        layers.push(
            "standing.frontier_hits",
            (counter("raptor_path_frontier_hits_total") - hits0) as f64,
        );
        layers.push(
            "standing.frontier_misses",
            (counter("raptor_path_frontier_misses_total") - misses0) as f64,
        );
    }
    drop(raptor);

    // Restart: recover the pass's image (several times: one recovery
    // varies by ~10% run to run) and compare it with the live session it
    // replaces.
    for _ in 0..RESTARTS_PER_PASS {
        tally.attempted += 1;
        let t = Instant::now();
        let recovered = ThreatRaptor::open_with_fs(fs.clone(), policy)?;
        let wall_ms = setup::ms(t);
        let report = recovered.recovery_report().expect("durable system has a recovery report");
        let session = recovered.durable().expect("durable system");
        let same: Vec<u64> = session
            .session()
            .queries()
            .iter()
            .map(|q| digest(&ResultTable::from_batch(&q.cumulative_batch()).rows))
            .collect();
        let engine = recovered.engine();
        if report.checkpoint_found
            && report.wal_bytes_discarded == 0
            && engine.stores.rel.total_rows() == rows
            && engine.stores.graph.node_count() == nodes
            && same == live
        {
            if traced {
                layers.push("recovery.rows_replayed", report.checkpoint_rows as f64);
                layers.push("recovery.wal_records_replayed", report.wal_records_replayed as f64);
            } else {
                e2e.push_recovery("recovery_ms", host, wall_ms);
            }
        } else {
            eprintln!("recovered session differs from the live one: {report}");
            tally.failed += 1;
        }
        e2e.end_stretch();
    }
    Ok(())
}
