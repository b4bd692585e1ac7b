//! Recursive-descent Cypher parser.

use raptor_common::error::{Error, Result};

use super::ast::*;
use super::lexer::{lex, Token, TokenKind};

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Word { upper, .. } if upper == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected `{kw}`")))
        }
    }

    fn at_symbol(&self, s: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Symbol(sym) if *sym == s)
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if self.at_symbol(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected `{s}`")))
        }
    }

    fn unexpected(&self, want: &str) -> Error {
        Error::syntax(format!("{want}, found {}", self.peek().kind.describe()), self.peek().offset)
    }

    fn identifier(&mut self) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Word { text, upper } if !is_reserved(upper) => {
                let t = text.clone();
                self.advance();
                Ok(t)
            }
            _ => Err(self.unexpected("expected identifier")),
        }
    }

    fn literal(&mut self) -> Result<CLit> {
        match self.peek().kind.clone() {
            TokenKind::Int(i) => {
                self.advance();
                Ok(CLit::Int(i))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(CLit::Str(s))
            }
            _ => Err(self.unexpected("expected literal")),
        }
    }

    fn prop_map(&mut self) -> Result<Vec<(String, CLit)>> {
        let mut props = Vec::new();
        if self.eat_symbol("{") {
            loop {
                let key = self.identifier()?;
                self.expect_symbol(":")?;
                let val = self.literal()?;
                props.push((key, val));
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol("}")?;
        }
        Ok(props)
    }

    fn node_pattern(&mut self) -> Result<NodePattern> {
        self.expect_symbol("(")?;
        let mut node = NodePattern::default();
        if matches!(&self.peek().kind, TokenKind::Word { upper, .. } if !is_reserved(upper)) {
            node.var = Some(self.identifier()?);
        }
        if self.eat_symbol(":") {
            node.label = Some(self.identifier()?);
        }
        node.props = self.prop_map()?;
        self.expect_symbol(")")?;
        Ok(node)
    }

    fn rel_pattern(&mut self) -> Result<RelPattern> {
        self.expect_symbol("-")?;
        let mut rel = RelPattern::default();
        if self.eat_symbol("[") {
            if matches!(&self.peek().kind, TokenKind::Word { upper, .. } if !is_reserved(upper)) {
                rel.var = Some(self.identifier()?);
            }
            if self.eat_symbol(":") {
                rel.label = Some(self.identifier()?);
            }
            if self.eat_symbol("*") {
                // `*`, `*n`, `*m..n`, `*m..`, `*..n`
                let min = match self.peek().kind.clone() {
                    TokenKind::Int(n) if n >= 0 => {
                        self.advance();
                        Some(n as u32)
                    }
                    _ => None,
                };
                if self.eat_symbol("..") {
                    let max = match self.peek().kind.clone() {
                        TokenKind::Int(n) if n >= 0 => {
                            self.advance();
                            Some(n as u32)
                        }
                        _ => None,
                    };
                    rel.range = Some((min, max));
                } else {
                    // `*n` = exactly n; bare `*` = 1..
                    rel.range = Some(match min {
                        Some(n) => (Some(n), Some(n)),
                        None => (None, None),
                    });
                }
            }
            rel.props = self.prop_map()?;
            self.expect_symbol("]")?;
        }
        self.expect_symbol("->")?;
        Ok(rel)
    }

    fn path_pattern(&mut self) -> Result<PathPattern> {
        let start = self.node_pattern()?;
        let mut segments = Vec::new();
        while self.at_symbol("-") {
            let rel = self.rel_pattern()?;
            let node = self.node_pattern()?;
            segments.push((rel, node));
        }
        Ok(PathPattern { start, segments })
    }

    fn prop_ref(&mut self) -> Result<PropRef> {
        let var = self.identifier()?;
        self.expect_symbol(".")?;
        let prop = self.identifier()?;
        Ok(PropRef { var, prop })
    }

    fn or_expr(&mut self) -> Result<CExpr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = CExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<CExpr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = CExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<CExpr> {
        if self.eat_keyword("NOT") {
            return Ok(CExpr::Not(Box::new(self.not_expr()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<CExpr> {
        if self.eat_symbol("(") {
            let e = self.or_expr()?;
            self.expect_symbol(")")?;
            return Ok(e);
        }
        let left = self.prop_ref()?;
        if self.eat_keyword("CONTAINS") {
            return Ok(CExpr::StrPred {
                left,
                kind: StrPredKind::Contains,
                needle: self.string_lit()?,
            });
        }
        if self.eat_keyword("STARTS") {
            self.expect_keyword("WITH")?;
            return Ok(CExpr::StrPred {
                left,
                kind: StrPredKind::StartsWith,
                needle: self.string_lit()?,
            });
        }
        if self.eat_keyword("ENDS") {
            self.expect_keyword("WITH")?;
            return Ok(CExpr::StrPred {
                left,
                kind: StrPredKind::EndsWith,
                needle: self.string_lit()?,
            });
        }
        if self.eat_keyword("LIKE") {
            return Ok(CExpr::StrPred {
                left,
                kind: StrPredKind::Like,
                needle: self.string_lit()?,
            });
        }
        if self.eat_keyword("IN") {
            self.expect_symbol("[")?;
            let mut list = Vec::new();
            loop {
                list.push(self.literal()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol("]")?;
            return Ok(CExpr::InList { left, list });
        }
        let op = match &self.peek().kind {
            TokenKind::Symbol("=") => COp::Eq,
            TokenKind::Symbol("<>") => COp::Ne,
            TokenKind::Symbol("<") => COp::Lt,
            TokenKind::Symbol("<=") => COp::Le,
            TokenKind::Symbol(">") => COp::Gt,
            TokenKind::Symbol(">=") => COp::Ge,
            _ => return Err(self.unexpected("expected comparison operator")),
        };
        self.advance();
        let right = match self.peek().kind.clone() {
            TokenKind::Int(_) | TokenKind::Str(_) => CmpRhs::Lit(self.literal()?),
            TokenKind::Word { .. } => CmpRhs::Prop(self.prop_ref()?),
            _ => return Err(self.unexpected("expected literal or property")),
        };
        Ok(CExpr::Cmp { left, op, right })
    }

    fn string_lit(&mut self) -> Result<String> {
        match self.peek().kind.clone() {
            TokenKind::Str(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("expected string literal")),
        }
    }

    fn query(&mut self) -> Result<CypherQuery> {
        self.expect_keyword("MATCH")?;
        let mut paths = vec![self.path_pattern()?];
        while self.eat_symbol(",") {
            paths.push(self.path_pattern()?);
        }
        let where_clause = if self.eat_keyword("WHERE") { Some(self.or_expr()?) } else { None };
        self.expect_keyword("RETURN")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut return_items = vec![ReturnItem { prop: self.prop_ref()? }];
        while self.eat_symbol(",") {
            return_items.push(ReturnItem { prop: self.prop_ref()? });
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.peek().kind.clone() {
                TokenKind::Int(n) if n >= 0 => {
                    self.advance();
                    Some(n as usize)
                }
                _ => return Err(self.unexpected("expected non-negative integer")),
            }
        } else {
            None
        };
        if !matches!(self.peek().kind, TokenKind::Eof) {
            return Err(self.unexpected("expected end of query"));
        }
        Ok(CypherQuery { paths, where_clause, distinct, return_items, limit })
    }
}

fn is_reserved(upper: &str) -> bool {
    matches!(
        upper,
        "MATCH"
            | "WHERE"
            | "RETURN"
            | "DISTINCT"
            | "LIMIT"
            | "AND"
            | "OR"
            | "NOT"
            | "CONTAINS"
            | "STARTS"
            | "ENDS"
            | "LIKE"
            | "WITH"
            | "IN"
    )
}

/// Parses one Cypher query.
pub fn parse_cypher(text: &str) -> Result<CypherQuery> {
    let tokens = lex(text)?;
    let mut p = Parser { tokens, pos: 0 };
    p.query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_event_pattern() {
        let q = parse_cypher(
            "MATCH (p1:Process)-[evt1:EVENT {optype: 'read'}]->(f1:File) \
             WHERE p1.exename CONTAINS '/bin/tar' RETURN DISTINCT p1.exename, f1.name",
        )
        .unwrap();
        assert_eq!(q.paths.len(), 1);
        let path = &q.paths[0];
        assert_eq!(path.start.var.as_deref(), Some("p1"));
        assert_eq!(path.start.label.as_deref(), Some("Process"));
        assert_eq!(path.segments.len(), 1);
        let (rel, node) = &path.segments[0];
        assert_eq!(rel.var.as_deref(), Some("evt1"));
        assert_eq!(rel.props, vec![("optype".to_string(), CLit::Str("read".into()))]);
        assert!(rel.range.is_none());
        assert_eq!(node.label.as_deref(), Some("File"));
        assert!(q.distinct);
        assert_eq!(q.return_items.len(), 2);
    }

    #[test]
    fn var_length_ranges() {
        let cases = [
            ("*", (None, None)),
            ("*3", (Some(3), Some(3))),
            ("*2..4", (Some(2), Some(4))),
            ("*2..", (Some(2), None)),
            ("*..4", (None, Some(4))),
        ];
        for (spec, want) in cases {
            let q = parse_cypher(&format!("MATCH (a)-[:EVENT{spec}]->(b) RETURN a.x")).unwrap();
            let (rel, _) = &q.paths[0].segments[0];
            assert_eq!(rel.range, Some(want), "{spec}");
        }
    }

    #[test]
    fn multi_path_with_where() {
        let q = parse_cypher(
            "MATCH (p:Process)-[e1:EVENT]->(f:File), (p)-[e2:EVENT]->(g:File) \
             WHERE e1.starttime < e2.starttime AND (f.name CONTAINS 'passwd' OR g.name STARTS WITH '/tmp') \
             RETURN p.exename LIMIT 7",
        )
        .unwrap();
        assert_eq!(q.paths.len(), 2);
        assert_eq!(q.limit, Some(7));
        let w = q.where_clause.unwrap();
        assert_eq!(w.clone().conjuncts().len(), 2);
        assert!(w.vars().contains(&"e1"));
    }

    #[test]
    fn anonymous_nodes_and_rels() {
        let q = parse_cypher(
            "MATCH (p:Process)-[:EVENT*1..2]->()-[e:EVENT {optype:'read'}]->(f) RETURN f.name",
        )
        .unwrap();
        let path = &q.paths[0];
        assert_eq!(path.segments.len(), 2);
        assert!(path.segments[0].1.var.is_none());
        assert!(path.segments[0].0.var.is_none());
    }

    #[test]
    fn in_list_and_ends_with() {
        let q = parse_cypher(
            "MATCH (p:Process) WHERE p.exename IN ['/bin/tar', '/bin/gzip'] AND p.exename ENDS WITH 'tar' RETURN p.exename",
        );
        // A bare node with no relationship is a valid path.
        let q = q.unwrap();
        assert!(q.paths[0].segments.is_empty());
    }

    #[test]
    fn like_predicate() {
        let q = parse_cypher("MATCH (p:Process) WHERE p.exename LIKE '%bin%ta_' RETURN p.exename")
            .unwrap();
        assert_eq!(
            q.where_clause,
            Some(CExpr::StrPred {
                left: PropRef { var: "p".into(), prop: "exename".into() },
                kind: StrPredKind::Like,
                needle: "%bin%ta_".into(),
            })
        );
    }

    #[test]
    fn errors() {
        assert!(parse_cypher("MATCH (p RETURN p.x").is_err());
        assert!(parse_cypher("MATCH (p) WHERE RETURN p.x").is_err());
        assert!(parse_cypher("MATCH (p) RETURN p").is_err(), "bare var not supported");
        assert!(parse_cypher("(p) RETURN p.x").is_err());
    }
}
