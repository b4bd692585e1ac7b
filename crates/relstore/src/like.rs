//! SQL `LIKE` pattern semantics.
//!
//! The matcher itself lives in [`raptor_common::like`] (it is shared with
//! the graph store's predicate lowering and the statistics plane's
//! selectivity estimation); this module re-exports it and adds literal-run
//! extraction so the trigram index can prune candidates.

pub use raptor_common::like::like_match;

/// The longest literal (wildcard-free) run in a LIKE pattern — the text
/// between `%` and `_` wildcards — used as a necessary-substring filter:
/// every text matching the pattern contains each of its literal runs
/// verbatim, whatever the anchoring. Returns `None` when the longest run
/// is shorter than one trigram (the index cannot help).
pub fn containment_literal(pattern: &str) -> Option<&str> {
    let longest =
        pattern
            .split(['%', '_'])
            .fold("", |best, run| if run.len() > best.len() { run } else { best });
    (longest.len() >= 3).then_some(longest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_extraction() {
        assert_eq!(containment_literal("%/bin/tar%"), Some("/bin/tar"));
        assert_eq!(containment_literal("%curl%"), Some("curl"));
        assert_eq!(containment_literal("/tmp/%"), Some("/tmp/"));
        // Several runs: the longest one (the first of equal lengths).
        assert_eq!(containment_literal("%a%bcd%"), Some("bcd"));
        assert_eq!(containment_literal("%tar%gz%"), Some("tar"));
        // Underscores split runs like `%` does.
        assert_eq!(containment_literal("%ab_def%"), Some("def"));
        assert_eq!(
            containment_literal("%/home/admin/executable_attach%"),
            Some("/home/admin/executable")
        );
        // Too short for a trigram.
        assert_eq!(containment_literal("%ab_d%"), None);
        assert_eq!(containment_literal("%ab%"), None);
        assert_eq!(containment_literal("%%"), None);
    }

    #[test]
    fn extraction_is_sound() {
        // Every text matching the pattern must contain the literal.
        let cases = [
            ("%/etc/passwd%", "/etc/passwd"),
            ("%upload%", "xx upload yy"),
            ("%tar%gz%", "/tmp/x.tar.gz"),
            ("%/home/admin/executable_attach%", "/home/admin/executable.attach"),
        ];
        for (pat, text) in cases {
            assert!(like_match(pat, text));
            let lit = containment_literal(pat).unwrap();
            assert!(text.contains(lit));
        }
    }
}
