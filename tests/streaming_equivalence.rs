//! Streaming ↔ batch equivalence.
//!
//! Two properties pin the streaming subsystem to the batch semantics:
//!
//! 1. **Store equivalence** — ingesting any attack case's events in
//!    shuffled epoch-sized chunks builds stores that answer every corpus
//!    query byte-identically (`sorted_rows()`) to a one-shot bulk load, on
//!    both backends (event patterns exercise the relational store, the
//!    length-1 path rewrite exercises the graph store).
//! 2. **Continuous evaluation** — standing queries advanced epoch-by-epoch
//!    over the data_leak case emit deltas whose concatenation equals the
//!    `ExecMode::Scheduled` batch result after the final epoch, with zero
//!    SQL/Cypher text parses along the way.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use threatraptor::audit::SystemEvent;
use threatraptor::engine::exec::ExecMode;
use threatraptor::engine::load::load;
use threatraptor::engine::{Engine, ResultTable};
use threatraptor::stream::{EpochPolicy, EpochStream, StreamSession};
use threatraptor::tbql::print::print_query;

/// The 8-query equivalence corpus (the shared constant — same fragment as
/// the backend-equivalence suite; IOCs match the data_leak case, other
/// cases legitimately return empty — equivalence must hold either way).
const QUERIES: &[&str] = threatraptor::tbql::parser::EQUIV_CORPUS;

fn shuffled(events: &[SystemEvent], seed: u64) -> Vec<SystemEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<SystemEvent> = events.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..(i + 1));
        out.swap(i, j);
    }
    out
}

/// Every corpus query, in both its event-pattern form (relational backend)
/// and its length-1 path form (graph backend), must agree between the two
/// engines.
fn assert_engines_equivalent(streamed: &Engine, bulk: &Engine, ctx: &str) {
    for q in QUERIES {
        let (a, astats) = streamed.execute_text(q, ExecMode::Scheduled).unwrap();
        let (b, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
        assert_eq!(a.sorted_rows(), b.sorted_rows(), "{ctx}: query {q}");
        assert_eq!(astats.backend.items_inserted, 0, "queries must not insert");

        let parsed = threatraptor::tbql::parse_tbql(q).unwrap();
        let path_q = print_query(&threatraptor::engine::exec::to_length1_path_query(&parsed));
        let (ap, _) = streamed.execute_text(&path_q, ExecMode::Scheduled).unwrap();
        let (bp, _) = bulk.execute_text(&path_q, ExecMode::Scheduled).unwrap();
        assert_eq!(ap.sorted_rows(), bp.sorted_rows(), "{ctx}: path query {path_q}");
        assert_eq!(a.sorted_rows(), ap.sorted_rows(), "{ctx}: backends disagree for {q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: any case, any epoch size, any delivery order — streamed
    /// stores are indistinguishable from bulk-loaded ones.
    #[test]
    fn shuffled_chunked_ingest_equals_bulk_load(
        case_idx in 0usize..18,
        epoch_size in 1usize..400,
        seed in 0u64..1_000_000,
    ) {
        let cases = raptor_cases::all_cases();
        let spec = cases[case_idx % cases.len()];
        let built = raptor_cases::build_case(spec, 0.05, 1234);

        let mut session = StreamSession::new().unwrap();
        let events = shuffled(&built.log.events, seed);
        for chunk in events.chunks(epoch_size) {
            session.ingest_chunk(&built.log, chunk).unwrap();
        }
        session.flush_entities(&built.log).unwrap();

        let bulk = Engine::new(load(&built.log).unwrap());
        let streamed = session.engine();
        prop_assert_eq!(streamed.stores.rel.total_rows(), bulk.stores.rel.total_rows());
        prop_assert_eq!(streamed.stores.graph.node_count(), bulk.stores.graph.node_count());
        prop_assert_eq!(streamed.stores.graph.edge_count(), bulk.stores.graph.edge_count());
        prop_assert_eq!(streamed.stores.now_ns, bulk.stores.now_ns);
        assert_engines_equivalent(streamed, &bulk, spec.id);

        // The shared dictionary plane under interleaved/shuffled ingestion:
        // chunked inserts into *both* backends still build exactly one
        // dictionary, with identical sym↔string mappings observed from each
        // store (and from the statistics plane).
        prop_assert!(streamed.stores.dict.ptr_eq(streamed.stores.rel.dict()));
        prop_assert!(streamed.stores.dict.ptr_eq(streamed.stores.graph.dict()));
        prop_assert!(streamed.stores.dict.ptr_eq(streamed.stores.rel.store_stats().dict()));
        for (sym, s) in streamed.stores.dict.iter() {
            prop_assert_eq!(streamed.stores.rel.dict().resolve(sym), s);
            prop_assert_eq!(streamed.stores.graph.dict().get(s), Some(sym));
        }
    }
}

/// The statistics plane stays fresh per epoch: stats are maintained on the
/// shared write path, so after *every* ingested epoch the streamed store's
/// row counts match what has been ingested so far, and after the final
/// epoch the full statistics (tables, columns, degree summaries, path
/// catalog) are identical to a bulk load's and account for every node and
/// edge of the graph store.
#[test]
fn streamed_stats_match_bulk_and_stay_fresh() {
    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let built = raptor_cases::build_case(spec, 0.2, 99);

    let mut session = StreamSession::new().unwrap();
    let mut events_so_far = 0u64;
    for batch in EpochStream::new(&built.log, EpochPolicy::ByCount(64)) {
        let report = session.ingest_batch(&batch).unwrap();
        events_so_far += report.events_ingested as u64;
        let stats = session.engine().stores.rel.store_stats();
        assert_eq!(
            stats.table("events").map_or(0, |t| t.rows()),
            events_so_far,
            "stats must advance with every epoch"
        );
    }
    let bulk = Engine::new(load(&built.log).unwrap());
    let streamed = session.engine();
    // The dictionaries differ (stream epochs interleave entity/event
    // interning; bulk loads all entities first), so compare the
    // dictionary-independent canonical views.
    let (s, b) = (streamed.stores.rel.store_stats(), bulk.stores.rel.store_stats());
    assert_eq!(s.canonical(), b.canonical());
    assert_eq!(
        s.catalog().canonical(&streamed.stores.dict),
        b.catalog().canonical(&bulk.stores.dict)
    );
    for stores in [&streamed.stores, &bulk.stores] {
        let stats = stores.rel.store_stats();
        assert_eq!(stats.total_nodes(), stores.graph.node_count() as u64);
        assert_eq!(stats.total_edges(), stores.graph.edge_count() as u64);
    }
    assert!(b.event_op_freq("read") > 0);
}

/// The acceptance invariant: continuous standing-query evaluation over the
/// data_leak case converges, after the final epoch, to exactly the batch
/// `ExecMode::Scheduled` results — for the whole corpus — and the whole
/// streaming path is parse-free.
#[test]
fn continuous_data_leak_evaluation_matches_batch() {
    let spec = raptor_cases::catalog::case_by_id("data_leak").unwrap();
    let built = raptor_cases::build_case(spec, 0.2, 99);

    let mut session = StreamSession::new().unwrap();
    let qids: Vec<_> = QUERIES
        .iter()
        .enumerate()
        .map(|(i, q)| session.register(&format!("q{i}"), q).unwrap())
        .collect();

    let mut per_query_delta_rows = vec![0usize; QUERIES.len()];
    let mut inserted_total = 0usize;
    for batch in EpochStream::new(&built.log, EpochPolicy::ByCount(64)) {
        let report = session.ingest_batch(&batch).unwrap();
        // Per-epoch reset semantics: each report counts its own inserts.
        assert_eq!(
            report.ingest_stats.items_inserted,
            2 * (report.entities_ingested + report.events_ingested)
        );
        inserted_total += report.ingest_stats.items_inserted;
        for d in &report.deltas {
            assert_eq!(d.stats.text_parses, 0, "delta evaluation parsed text");
            assert_eq!(d.stats.backend.text_parses, 0);
            // The streaming path is symbol-only: delta evaluation (matching,
            // joining, multiset-diffing) materializes no strings — rendering
            // happens only if/when a consumer reaches the edge.
            assert_eq!(d.stats.strings_materialized, 0, "delta evaluation rendered strings");
            per_query_delta_rows[d.id.0] += d.delta.n_rows();
        }
    }
    assert_eq!(
        inserted_total,
        2 * (built.log.entities.len() + built.log.events.len()),
        "running total aggregates the per-epoch counters"
    );
    assert_eq!(session.engine().stores.rel.text_parse_count(), 0);

    let bulk = Engine::new(load(&built.log).unwrap());
    for (i, q) in QUERIES.iter().enumerate() {
        let (expect, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
        let got = ResultTable::from_batch(&session.query(qids[i]).cumulative_batch());
        assert_eq!(got.sorted_rows(), expect.sorted_rows(), "query {q}");
        assert_eq!(per_query_delta_rows[i], expect.rows.len(), "delta rows for {q}");
    }
    // The attack is actually found: at least one corpus query fired.
    assert!(per_query_delta_rows.iter().any(|&n| n > 0));
}
