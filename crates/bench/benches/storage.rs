//! Criterion benches for the storage substrates: relational point/LIKE/join
//! queries (index ablations) and graph var-length path search, the LIKE
//! matcher and its index-served request, plus the audit parser and
//! data-reduction pass.

use criterion::{criterion_group, criterion_main, Criterion};
use raptor_audit::reduce::{merge_events, DEFAULT_THRESHOLD};
use raptor_audit::sim::{generate_background, BackgroundProfile, Simulator};
use raptor_audit::LogParser;
use raptor_common::like::like_match;
use raptor_common::time::Timestamp;
use raptor_engine::load::load;
use raptor_relstore::db::Ins;
use raptor_relstore::{ColumnDef, ColumnType, Database, TableSchema};
use raptor_storage::{BackendStats, EntityClass, Pred, StorageBackend};

fn workload() -> Vec<raptor_audit::SyscallRecord> {
    let mut sim = Simulator::new(3, Timestamp::from_secs(0));
    generate_background(
        &mut sim,
        &BackgroundProfile { users: 15, sessions: 600, ..Default::default() },
    );
    sim.finish()
}

fn bench_audit(c: &mut Criterion) {
    let records = workload();
    let mut g = c.benchmark_group("audit");
    g.sample_size(10);
    g.bench_function("parse", |b| b.iter(|| LogParser::parse(std::hint::black_box(&records))));
    let parsed = LogParser::parse(&records);
    g.bench_function("reduce", |b| {
        b.iter(|| {
            let mut events = parsed.events.clone();
            merge_events(&mut events, DEFAULT_THRESHOLD)
        })
    });
    let encoded = raptor_audit::codec::encode_batch(&records);
    g.bench_function("codec_decode", |b| {
        b.iter(|| raptor_audit::codec::decode_batch(std::hint::black_box(encoded.clone())).unwrap())
    });
    g.finish();
}

fn bench_stores(c: &mut Criterion) {
    let records = workload();
    let mut log = LogParser::parse(&records);
    merge_events(&mut log.events, DEFAULT_THRESHOLD);
    let stores = load(&log).unwrap();
    let mut g = c.benchmark_group("stores");
    g.sample_size(20);
    g.bench_function("load_both", |b| b.iter(|| load(std::hint::black_box(&log)).unwrap()));
    g.bench_function("sql_like_trigram", |b| {
        b.iter(|| {
            stores
                .rel
                .query("SELECT id FROM processes WHERE exename LIKE '%/usr/bin/gcc%'")
                .unwrap()
        })
    });
    g.bench_function("sql_point_lookup", |b| {
        b.iter(|| stores.rel.query("SELECT id FROM events WHERE optype = 'connect'").unwrap())
    });
    g.bench_function("sql_three_way_join", |b| {
        b.iter(|| {
            stores
                .rel
                .query(
                    "SELECT p.exename, f.name FROM processes p, events e, files f \
                     WHERE e.subject = p.id AND e.object = f.id AND e.optype = 'read' \
                     AND p.exename LIKE '%/usr/bin/gcc%'",
                )
                .unwrap()
        })
    });
    let cy = raptor_graphstore::cypher::parse_cypher(
        "MATCH (p:Process)-[:EVENT*1..2]->(f:File) \
         WHERE p.exename CONTAINS '/usr/bin/gcc' RETURN DISTINCT f.name",
    )
    .unwrap();
    g.bench_function("cypher_var_length", |b| {
        b.iter(|| raptor_graphstore::cypher::exec::execute(&stores.graph, &cy, 8).unwrap())
    });
    g.finish();
}

/// The LIKE path: the matcher on the three pattern families TBQL filters
/// produce, and one LIKE-filtered candidate request served by the trigram +
/// hash index pair over a column of 4,096 distinct names (the statistics
/// tracking cap, so a per-value estimate would walk every one of them).
fn bench_like(c: &mut Criterion) {
    let mut g = c.benchmark_group("like");
    let text = "/home/admin/.cache/executable_attach.tar.gz";
    for (id, pattern) in [
        ("match_contains", "%executable_attach%"),
        ("match_prefix", "/home/admin/%"),
        ("match_underscore", "%/home/_dmin/%attach%"),
    ] {
        g.bench_function(id, |b| b.iter(|| like_match(pattern, std::hint::black_box(text))));
    }

    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "files",
        vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("name", ColumnType::Str)],
    ))
    .unwrap();
    db.create_hash_index("files", "name").unwrap();
    db.create_trigram_index("files", "name").unwrap();
    for i in 0..4096 {
        let name = format!("/home/u{}/doc{i}.txt", i % 32);
        db.insert("files", &[Ins::Int(i), Ins::Str(&name)]).unwrap();
    }
    let filter = Pred::Like { attr: "name".into(), pattern: "%/u7/doc1%".into(), negated: false };
    g.bench_function("entity_candidates_4096", |b| {
        b.iter(|| {
            let mut stats = BackendStats::default();
            db.entity_candidates(EntityClass::File, &filter, &mut stats).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_audit, bench_stores, bench_like);
criterion_main!(benches);
