//! Property-based tests: LIKE semantics vs a reference matcher, index paths
//! and index-driven estimates vs full scans, and executor correctness
//! against a naive evaluator.

use proptest::prelude::*;
use raptor_relstore::db::Ins;
use raptor_relstore::like::{containment_literal, like_match};
use raptor_relstore::{ColumnDef, ColumnType, Database, TableSchema};
use raptor_storage::stats::MCV_TRACK_CAP;

/// A `files(id, name)` table, optionally with the hash + trigram index pair
/// that serves LIKE on `name`.
fn files_db(names: &[String], indexed: bool) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "files",
        vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("name", ColumnType::Str)],
    ))
    .unwrap();
    if indexed {
        db.create_hash_index("files", "name").unwrap();
        db.create_trigram_index("files", "name").unwrap();
    }
    for (i, n) in names.iter().enumerate() {
        db.insert("files", &[Ins::Int(i as i64), Ins::Str(n)]).unwrap();
    }
    db
}

/// Reference LIKE via dynamic programming (independent implementation).
fn like_reference(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let mut dp = vec![vec![false; t.len() + 1]; p.len() + 1];
    dp[0][0] = true;
    for i in 1..=p.len() {
        if p[i - 1] == '%' {
            dp[i][0] = dp[i - 1][0];
        }
        for j in 1..=t.len() {
            dp[i][j] = match p[i - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => dp[i - 1][j - 1] && c == t[j - 1],
            };
        }
    }
    dp[p.len()][t.len()]
}

proptest! {
    /// The matcher agrees with the DP reference on random pattern/text
    /// pairs; both sides draw wildcards and a multibyte character, so a
    /// `%` or `_` in the text must stay a literal and `_` must span `é`.
    #[test]
    fn like_matches_reference(pattern in "[ab%_é]{0,10}", text in "[ab%_é]{0,10}") {
        prop_assert_eq!(like_match(&pattern, &text), like_reference(&pattern, &text));
    }

    /// Any extracted containment literal is truly necessary: texts matching
    /// the pattern always contain the literal — `%lit%`, `_`-bearing and
    /// several-run patterns alike.
    #[test]
    fn containment_literal_is_sound(
        pattern in "[%_]{0,1}[abc]{1,5}[%_]{1,2}[abc]{0,5}[%_]{0,1}[abc]{0,4}",
        text in "[abc]{0,16}",
    ) {
        if let Some(lit) = containment_literal(&pattern) {
            if like_match(&pattern, &text) {
                prop_assert!(text.contains(lit));
            }
        }
    }

    /// Index-accelerated LIKE returns exactly the same rows as a full scan,
    /// for `%lit%`, `_`-bearing and several-run patterns.
    #[test]
    fn trigram_path_equals_full_scan(
        names in proptest::collection::vec("[a-d/]{1,12}", 1..60),
        pattern in "[%_]{0,1}[a-d/]{3,6}[%_]{0,2}[a-d/]{0,3}[%_]{0,1}",
    ) {
        let plain = files_db(&names, false);
        let indexed = files_db(&names, true);
        let sql = format!("SELECT id FROM files WHERE name LIKE '{pattern}' ORDER BY id");
        let a = plain.query(&sql).unwrap();
        let b = indexed.query(&sql).unwrap();
        prop_assert_eq!(a.rows(), b.rows());
        prop_assert_eq!(a.stats.full_scans, 1);
        // Every generated pattern has a literal run of ≥ 3 bytes.
        prop_assert_eq!((b.stats.index_scans, b.stats.full_scans), (1, 0));
    }

    /// Hash-index equality returns exactly the rows a scan-and-filter finds.
    #[test]
    fn hash_index_equals_scan(
        vals in proptest::collection::vec(0i64..20, 1..80),
        probe in 0i64..20,
    ) {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("v", ColumnType::Int)],
        )).unwrap();
        db.create_hash_index("t", "v").unwrap();
        for (i, v) in vals.iter().enumerate() {
            db.insert("t", &[Ins::Int(i as i64), Ins::Int(*v)]).unwrap();
        }
        let got = db.query(&format!("SELECT id FROM t WHERE v = {probe} ORDER BY id")).unwrap();
        let want: Vec<i64> = vals
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == probe)
            .map(|(i, _)| i as i64)
            .collect();
        let got_ids: Vec<i64> = got.rows().iter().filter_map(|r| r[0].as_int()).collect();
        prop_assert_eq!(got_ids, want);
    }

    /// Join results agree with a naive nested-loop oracle on random data.
    #[test]
    fn hash_join_equals_nested_loop(
        left in proptest::collection::vec(0i64..8, 1..30),
        right in proptest::collection::vec(0i64..8, 1..30),
    ) {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "l",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("k", ColumnType::Int)],
        )).unwrap();
        db.create_table(TableSchema::new(
            "r",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("k", ColumnType::Int)],
        )).unwrap();
        for (i, k) in left.iter().enumerate() {
            db.insert("l", &[Ins::Int(i as i64), Ins::Int(*k)]).unwrap();
        }
        for (i, k) in right.iter().enumerate() {
            db.insert("r", &[Ins::Int(i as i64), Ins::Int(*k)]).unwrap();
        }
        let got = db
            .query("SELECT l.id, r.id FROM l, r WHERE l.k = r.k ORDER BY l.id, r.id")
            .unwrap();
        let mut want = Vec::new();
        for (i, lk) in left.iter().enumerate() {
            for (j, rk) in right.iter().enumerate() {
                if lk == rk {
                    want.push((i as i64, j as i64));
                }
            }
        }
        want.sort_unstable();
        let got_pairs: Vec<(i64, i64)> = got
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(got_pairs, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The index-driven LIKE estimate — tracked frequencies summed over the
    /// verified symbol set — equals `ColumnStats::like_fraction`'s pass over
    /// every tracked value bit for bit, also once the column outgrows the
    /// tracking cap and the untracked tail term contributes.
    #[test]
    fn like_estimate_from_symbols_equals_like_fraction(
        names in proptest::collection::vec("[a-c/_%]{1,10}", 1..60),
        overflow in proptest::bool::ANY,
        pattern in "[%_]{0,1}[a-c/]{3,5}[%_]{0,2}[a-c/]{0,3}[%_]{0,1}",
    ) {
        let mut names = names;
        if overflow {
            // Distinct values past the cap, each carrying a generated name,
            // so matching values land in the tracked set and in the tail.
            let tail: Vec<String> = (0..MCV_TRACK_CAP + 64)
                .map(|i| format!("{}{i}", names[i % names.len()]))
                .collect();
            names.splice(0..0, tail);
        }
        let db = files_db(&names, true);
        let col = db.store_stats().table("files").unwrap().column("name").unwrap();
        prop_assert_eq!(col.distinct() > MCV_TRACK_CAP as u64, overflow);
        let syms = db.like_symbols("files", "name", &pattern).unwrap();
        prop_assert_eq!(
            col.like_fraction_of(&syms).to_bits(),
            col.like_fraction(&pattern, db.dict()).to_bits()
        );
    }
}
