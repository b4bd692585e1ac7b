//! The ThreatRaptor benchmark: both hunting pipelines, end to end and
//! layer by layer, through the public API of the `threatraptor` facade.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hunt-cti|query-15x|stream-15x --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is the end-to-end
//! metrics; with `--trace 1` it is the per-layer metrics of a separate
//! traced run, whose spans are also written as a Chrome trace to
//! `perfbench/out/`. See `perfbench/README.md` for the workloads and what
//! each metric is expected to move.

mod read;
mod setup;
mod stream;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use threatraptor::common::error::Result;
use threatraptor::obs::{self, MetricValue};

use trace::Tracer;
use util::{host_speed, json_str, peak_rss_mb, percentile, ratio, Acc, Timings};

/// End-to-end metrics of every workload: name, unit, and whether it is
/// one of the gated metrics of `BENCHMARK.json`. The tail and throughput
/// of the primary op are printed in the provenance line instead: even
/// calibrated, their run-to-run spread on the shared build host reached
/// 10-30%, wider than any bound can be.
const E2E: &[(&str, &str, bool)] = &[
    ("op_ms_p50_gm", "ms", true),
    ("op_ms_p99", "ms", false),
    ("ops_per_s", "1/s", false),
    ("giant_sql_ms_p50_gm", "ms", true),
    ("giant_cypher_ms_p50_gm", "ms", true),
    ("recovery_ms_p50_gm", "ms", true),
    ("setup_s", "s", true),
    ("setup_rss_mb", "MiB", true),
];

/// Per-layer metrics, reported by every workload's traced run.
const LAYERS: &[(&str, &str)] = &[
    ("extract.ms_p50", "ms"),
    ("synthesis.us_p50", "us"),
    ("tbql.us_p50", "us"),
    ("engine.execute_ms_p50", "ms"),
    ("engine.self_ms_p50", "ms"),
    ("engine.render_us_p50", "us"),
    ("engine.requests_per_op", "count"),
    ("engine.q_error_p50", "ratio"),
    ("engine.q_error_max", "ratio"),
    ("relstore.ms_p50", "ms"),
    ("relstore.us_per_request", "us"),
    ("relstore.rows_scanned_per_row", "ratio"),
    ("relstore.full_scans", "count"),
    ("relstore.index_scans", "count"),
    ("relstore.segments_pruned_ratio", "ratio"),
    ("graphstore.ms_p50", "ms"),
    ("graphstore.us_per_request", "us"),
    ("graphstore.edges_traversed", "count"),
    ("giant_sql.store_ms_p50", "ms"),
    ("giant_sql.engine_ms_p50", "ms"),
    ("giant_sql.tuples_built", "count"),
    ("giant_cypher.store_ms_p50", "ms"),
    ("giant_cypher.engine_ms_p50", "ms"),
    ("giant_cypher.bindings_built", "count"),
    ("setup.simulate_ms", "ms"),
    ("audit.parse_reduce_ms", "ms"),
    ("engine.load_ms", "ms"),
    ("engine.load_rss_mb", "MiB"),
    ("stream.insert_ms_p50", "ms"),
    ("stream.insert_us_per_event", "us"),
    ("stream.inserts_per_event", "count"),
    ("stream.standing_ms_p50", "ms"),
    ("standing.requests_per_epoch", "count"),
    ("standing.rows_scanned_per_epoch", "count"),
    ("standing.frontier_hit_ratio", "ratio"),
    ("standing.delta_rows", "count"),
    ("durable.commit_ms_p50", "ms"),
    ("durable.commit_ms_max", "ms"),
    ("durable.wal_bytes_per_event", "bytes"),
    ("durable.checkpoint_bytes_per_event", "bytes"),
    ("recovery.rows_replayed", "count"),
    ("recovery.wal_records_replayed", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["hunt-cti", "query-15x", "stream-15x"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 42, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// What one run produced.
struct Run {
    tally: read::Tally,
    e2e: Timings,
    layers: Acc,
    tracer: Tracer,
    /// Each set-up's wall time (s) and the [`host_speed`] around it.
    setups: Vec<(f64, f64)>,
    /// Resident memory once set up: the loaded stores and their inputs.
    setup_rss_mb: f64,
    threads: i64,
    stores: Vec<(usize, usize)>,
    mix: String,
}

/// Sets up [`SETUP_RUNS`] times, dropping each set-up before the next,
/// with the reference kernel timed before and after each. Returns the last
/// set-up, and each set-up's wall time (s) and [`host_speed`].
fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T>) -> Result<(T, Vec<(f64, f64)>)> {
    let (mut last, mut setups) = (None, Vec::new());
    for _ in 0..SETUP_RUNS {
        drop(last.take());
        let before = util::reference_kernel();
        let t = Instant::now();
        last = Some(setup()?);
        let wall = t.elapsed().as_secs_f64();
        setups.push((wall, host_speed(before, util::reference_kernel())));
    }
    Ok((last.expect("SETUP_RUNS > 0"), setups))
}

fn run(args: &Args) -> Result<Run> {
    let (mut layers, mut tracer) = (Acc::default(), Tracer::default());
    if args.workload == "stream-15x" {
        let (loaded, setups) = repeat_setup(|| stream::setup(&mut layers, args.seed))?;
        let setup_rss_mb = util::rss_mb();
        let threads = threads_gauge(&loaded[0].1);
        let stores = loaded.iter().map(|(log, _)| (log.events.len(), log.entities.len())).collect();
        let set = stream::prepare(loaded);
        let mut e2e = Timings::start(threads as usize);
        let tally = stream::run(&set, args.seconds, args.trace, &mut e2e, &mut layers, &mut tracer);
        let mix = format!(
            "passes of ~{} events in epochs of {} into a durable session (13 standing queries), \
             alternating over {} hosts; per pass {} look-back ops on the streamed store and {} restarts",
            set.hosts[0].log.events.len(),
            stream::EPOCH_EVENTS,
            set.hosts.len(),
            set.retro_len(),
            stream::RESTARTS_PER_PASS
        );
        return Ok(Run { tally, e2e, layers, tracer, setups, setup_rss_mb, threads, stores, mix });
    }
    let (stores, setups) = repeat_setup(|| match args.workload.as_str() {
        "hunt-cti" => read::setup_hunt_cti(&mut layers, args.seed, args.trace),
        _ => read::setup_query_15x(&mut layers, args.seed, args.trace),
    })?;
    let setup_rss_mb = util::rss_mb();
    let set = read::prepare(stores, &args.workload, &mut layers);
    let threads = threads_gauge(&set.stores[0].raptor);
    let stores = set.stores.iter().map(|s| (s.events, s.entities)).collect();
    let mut e2e = Timings::start(threads as usize);
    let tally = read::run(&set, args.seconds, args.trace, &mut e2e, &mut layers, &mut tracer);
    let mix = set.mix();
    Ok(Run { tally, e2e, layers, tracer, setups, setup_rss_mb, threads, stores, mix })
}

fn threads_gauge(raptor: &threatraptor::ThreatRaptor) -> i64 {
    match raptor.metrics().get("raptor_threads") {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0,
    }
}

/// The end-to-end metrics, in [`E2E`] order, from a run's loop samples
/// and set-up times (s): as measured, or calibrated (see [`Timings`]).
fn e2e_metrics(r: &Run, calibrated: bool) -> Vec<f64> {
    let e = if calibrated { &r.e2e.cal } else { &r.e2e.raw };
    let setups: Vec<f64> =
        r.setups.iter().map(|(s, speed)| if calibrated { s * speed } else { *s }).collect();
    vec![
        e.gm_p50("op_ms"),
        e.p99("op_ms"),
        ratio(e.count("op_ms") as f64 * 1e3, e.sum("op_ms")),
        e.gm_p50("giant_sql_ms"),
        e.gm_p50("giant_cypher_ms"),
        e.gm_p50("recovery_ms"),
        percentile(&setups, 0.5),
        r.setup_rss_mb,
    ]
}

fn layer_metrics(r: &Run) -> Vec<f64> {
    let l = &r.layers;
    let e = &r.e2e.cal;
    let k = SETUP_RUNS as f64;
    let hits = l.sum("standing.frontier_hits");
    vec![
        l.p50("extract.ms"),
        l.p50("synthesis.us"),
        l.p50("tbql.us"),
        l.p50("engine.execute_ms"),
        l.p50("engine.self_ms"),
        l.p50("engine.render_us"),
        l.mean("engine.requests"),
        l.p50("engine.q_error"),
        l.max("engine.q_error"),
        l.p50("rel.op_ms"),
        l.mean("rel.req_us"),
        ratio(l.sum("rel.scanned"), l.sum("rel.returned")),
        l.mean("rel.full_scans"),
        l.mean("rel.index_scans"),
        ratio(l.sum("rel.seg_pruned"), l.sum("rel.seg_scanned") + l.sum("rel.seg_pruned")),
        l.p50("graph.op_ms"),
        l.mean("graph.req_us"),
        l.mean("graph.edges"),
        l.p50("giant_sql.store_ms"),
        l.p50("giant_sql.engine_ms"),
        l.mean("giant_sql.built"),
        l.p50("giant_cypher.store_ms"),
        l.p50("giant_cypher.engine_ms"),
        l.mean("giant_cypher.built"),
        l.sum("setup.simulate_ms") / k,
        l.sum("audit.parse_reduce_ms") / k,
        l.sum("engine.load_ms") / k,
        l.sum("engine.load_rss_mb") / k,
        l.p50("stream.insert_ms"),
        ratio(l.sum("stream.insert_ns") / 1e3, l.sum("stream.events")),
        ratio(l.sum("stream.inserted"), l.sum("stream.events")),
        l.p50("stream.standing_ms"),
        l.mean("standing.requests"),
        l.mean("standing.rows_scanned"),
        ratio(hits, hits + l.sum("standing.frontier_misses")),
        l.mean("standing.delta_rows"),
        l.p50("durable.commit_ms"),
        l.max("durable.commit_ms"),
        ratio(l.sum("durable.wal_bytes"), l.sum("durable.wal_events")),
        ratio(l.sum("durable.ckpt_bytes"), l.sum("durable.ckpt_events")),
        l.mean("recovery.rows_replayed"),
        l.mean("recovery.wal_records_replayed"),
        r.tracer.coverage_pct(),
        (ratio(e.gm_p50("traced_op_ms"), e.gm_p50("op_ms")) - 1.0) * 100.0,
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    obs::trace().set_enabled(false);
    let r = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metric = |name: &str, unit: &str, v: f64| {
        format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(name), json_str(unit))
    };
    let e2e = e2e_metrics(&r, true);
    let pick = |gated: bool| -> Vec<String> {
        E2E.iter()
            .zip(&e2e)
            .filter(|((_, _, g), _)| *g == gated)
            .map(|((name, unit, _), v)| metric(name, unit, *v))
            .collect()
    };
    let metrics = if args.trace {
        LAYERS
            .iter()
            .zip(layer_metrics(&r))
            .map(|((name, unit), v)| metric(name, unit, v))
            .collect()
    } else {
        pick(true)
    };

    let mut trace_file = String::new();
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match r.tracer.write_chrome(&path) {
            Ok(()) => trace_file = path.display().to_string(),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let stores: Vec<String> =
        r.stores.iter().map(|(ev, en)| format!("{{\"events\":{ev},\"entities\":{en}}}")).collect();
    let raw: Vec<String> = E2E
        .iter()
        .zip(e2e_metrics(&r, false))
        .map(|((name, _, _), v)| format!("{}:{v}", json_str(name)))
        .collect();
    let samples: Vec<String> =
        ["op_ms", "traced_op_ms", "giant_sql_ms", "giant_cypher_ms", "recovery_ms"]
            .iter()
            .map(|k| format!("{}:{}", json_str(k), r.e2e.raw.count(k)))
            .chain([format!("\"stretches\":{}", r.e2e.speeds.len())])
            .collect();
    let setup_speeds: Vec<f64> = r.setups.iter().map(|(_, speed)| *speed).collect();
    println!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"raptor_threads\":{},\"git_revision\":{},\"setup_runs\":{SETUP_RUNS},\"stores\":[{}],\
         \"request_mix\":{},\"epoch_events\":{},\"durable_policy\":{},\"fs\":{},\"samples\":{{{}}},\
         \"peak_rss_mb\":{},\"trace_file\":{},\"nominal_ref_ms\":{},\"host_speed_p50\":{{\"one_thread\":{},\"pool\":{}}},\"setup_host_speed_p50\":{},\"ungated\":{{{}}},\"raw\":{{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        r.threads,
        json_str(&util::git_revision()),
        stores.join(","),
        json_str(&r.mix),
        stream::EPOCH_EVENTS,
        json_str(&format!(
            "stream-15x: checkpoint_every={} epochs; restart images: one epoch + one explicit checkpoint",
            threatraptor::DurablePolicy::default().checkpoint_every
        )),
        json_str("MemFs (in memory: device latency is out of scope)"),
        samples.join(","),
        peak_rss_mb(),
        json_str(&trace_file),
        util::NOMINAL_REF_MS,
        percentile(&r.e2e.speeds.iter().map(|s| s.0).collect::<Vec<_>>(), 0.5),
        percentile(&r.e2e.speeds.iter().map(|s| s.1).collect::<Vec<_>>(), 0.5),
        percentile(&setup_speeds, 0.5),
        pick(false).join(","),
        raw.join(","),
    );
    let failed = r.tally.failed;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        r.tally.attempted.max(1),
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
