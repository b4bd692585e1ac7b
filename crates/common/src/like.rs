//! SQL `LIKE` pattern matching.
//!
//! TBQL attribute filters use `%`-wildcards ("`%` matches any character
//! sequence", Section III-D) and they surface in four places: compiled SQL
//! predicates and the trigram access path (relstore), the exact LIKE
//! predicate of both Cypher lowerings (graphstore's typed lowering and the
//! engine's giant-Cypher text), and selectivity estimation over collected
//! column statistics (raptor-storage). The matcher lives here so all of
//! them share one semantics: `%` = any run, `_` = any single character, no
//! escape syntax (audit strings never need one).

/// The plain string predicate a LIKE pattern reduces to, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LikeShape<'a> {
    /// `%lit%`
    Contains(&'a str),
    /// `lit%`
    StartsWith(&'a str),
    /// `%lit`
    EndsWith(&'a str),
    /// Any other shape: `_`, several literal runs, or no `%` at all.
    Pattern,
}

/// Classifies `pattern` by the plain string predicate it is equivalent to
/// (`lit` free of wildcards), so callers with substring/prefix/suffix
/// primitives can use them and keep [`like_match`] for the rest.
pub fn like_shape(pattern: &str) -> LikeShape<'_> {
    let plain = |s: &&str| !s.contains(['%', '_']);
    if let Some(rest) = pattern.strip_prefix('%') {
        if let Some(lit) = rest.strip_suffix('%').filter(plain) {
            return LikeShape::Contains(lit);
        }
        if plain(&rest) {
            return LikeShape::EndsWith(rest);
        }
    } else if let Some(lit) = pattern.strip_suffix('%').filter(plain) {
        return LikeShape::StartsWith(lit);
    }
    LikeShape::Pattern
}

/// Returns whether `text` matches the SQL LIKE `pattern`.
///
/// Allocation-free. The three plain shapes of [`like_shape`] are a
/// substring, prefix or suffix test; every other pattern runs an iterative
/// two-pointer walk over the bytes with backtracking over the last `%` —
/// O(n·m) worst case, linear on patterns without `%`. `_` and the
/// backtracking `%` step over whole UTF-8 characters, so a literal byte is
/// only ever compared at the position a pattern character would start.
pub fn like_match(pattern: &str, text: &str) -> bool {
    match like_shape(pattern) {
        LikeShape::Contains(lit) => text.contains(lit),
        LikeShape::StartsWith(lit) => text.starts_with(lit),
        LikeShape::EndsWith(lit) => text.ends_with(lit),
        LikeShape::Pattern => walk(pattern.as_bytes(), text.as_bytes()),
    }
}

/// The general matcher behind [`like_match`].
fn walk(p: &[u8], t: &[u8]) -> bool {
    let (mut pi, mut ti) = (0usize, 0usize);
    // (pattern index just past the last `%`, text index it absorbs up to)
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        // The pattern's wildcards are tested before any literal comparison:
        // a `%` or `_` in the text is an ordinary character.
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                star = Some((pi, ti));
            }
            Some(b'_') => {
                pi += 1;
                ti += utf8_len(t[ti]);
            }
            Some(&b) if b == t[ti] => {
                pi += 1;
                ti += 1;
            }
            _ => match star {
                // Backtrack: let the last % absorb one more character.
                Some((sp, st)) => {
                    let st = st + utf8_len(t[st]);
                    star = Some((sp, st));
                    pi = sp;
                    ti = st;
                }
                None => return false,
            },
        }
    }
    while p.get(pi) == Some(&b'%') {
        pi += 1;
    }
    pi == p.len()
}

/// Byte length of the UTF-8 character whose first byte is `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7f => 1,
        0xf0..=0xff => 4,
        0xe0..=0xef => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_without_wildcards() {
        assert!(like_match("/bin/tar", "/bin/tar"));
        assert!(!like_match("/bin/tar", "/bin/tar "));
        assert!(!like_match("/bin/tar", "/bin/ta"));
    }

    #[test]
    fn percent_wildcards() {
        assert!(like_match("%/bin/tar%", "/bin/tar"));
        assert!(like_match("%/bin/tar%", "/usr/bin/tar"));
        assert!(like_match("%upload%", "/tmp/upload.tar.bz2"));
        assert!(like_match("%.tar", "/tmp/upload.tar"));
        assert!(like_match("/tmp/%", "/tmp/upload.tar"));
        assert!(!like_match("%passwd%", "/etc/shadow"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
    }

    #[test]
    fn underscore_wildcard() {
        assert!(like_match("/tmp/upload.ta_", "/tmp/upload.tar"));
        assert!(!like_match("/tmp/upload.ta_", "/tmp/upload.t"));
        assert!(like_match("_%", "x"));
        assert!(!like_match("_", ""));
    }

    #[test]
    fn multiple_percents_backtrack() {
        assert!(like_match("%a%b%", "xxaxxbxx"));
        assert!(!like_match("%a%b%", "xxbxxaxx"));
        assert!(like_match("%ab%ab%", "ababab"));
    }

    #[test]
    fn shapes() {
        assert_eq!(like_shape("%tar%"), LikeShape::Contains("tar"));
        assert_eq!(like_shape("%%"), LikeShape::Contains(""));
        assert_eq!(like_shape("/tmp/%"), LikeShape::StartsWith("/tmp/"));
        assert_eq!(like_shape("%.gz"), LikeShape::EndsWith(".gz"));
        assert_eq!(like_shape("%"), LikeShape::EndsWith(""));
        for p in ["%a_b%", "%tar%gz%", "a%b", "/bin/tar", "_%", "%a%%", ""] {
            assert_eq!(like_shape(p), LikeShape::Pattern, "{p}");
        }
    }

    #[test]
    fn wildcard_characters_in_text_are_literals() {
        assert!(like_match("%/tmp/%", "/tmp/%20x"));
        assert!(like_match("%a", "%ba"));
        assert!(like_match("_b", "%b"));
        assert!(like_match("a_c", "a_c"));
        assert!(!like_match("a%c", "a%b"));
    }

    #[test]
    fn underscore_spans_one_multibyte_character() {
        assert!(like_match("caf_", "café"));
        assert!(!like_match("caf__", "café"));
        assert!(like_match("%_é", "xé"));
        assert!(like_match("_€_", "a€b"));
        assert!(like_match("%é%", "xxéyy"));
        assert!(!like_match("%é_", "é"));
        assert!(like_match("%😀_", "a😀b"));
    }
}
