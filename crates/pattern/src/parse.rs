//! Parser for the tree pattern DSL.
//!
//! The DSL is an XPath-like, order-free notation for tree patterns:
//!
//! ```text
//! pattern := sep? node
//! node    := NAME '*'? branch* spine?
//! branch  := '[' sep node ']'
//! spine   := sep node
//! sep     := '//' | '/'
//! NAME    := [A-Za-z_][A-Za-z0-9_.-]*
//! ```
//!
//! `/` introduces a child edge, `//` a descendant edge. Branches in `[...]`
//! must spell their edge explicitly (`[/Title]`, `[//Paragraph]`). At most
//! one node may carry the output marker `*`; if none does, the root is the
//! output node.
//!
//! Example (Figure 2(a) of the paper):
//!
//! ```text
//! Articles/Article*[/Title][/Paragraph]/Section//Paragraph
//! ```

use crate::node::EdgeKind;
use crate::pattern::TreePattern;
use crate::NodeId;
use tpq_base::{failpoint, Error, Result, TypeInterner};

/// Maximum `[...]` nesting depth. The spine is parsed iteratively, so
/// only bracket nesting recurses; this bound keeps adversarial inputs
/// (`a[/a[/a[...`) from overflowing the stack while staying far above
/// anything a realistic query generator emits. Each level costs a few
/// sizable parser frames, so the cap must fit comfortably inside the
/// 2 MiB stacks spawned threads get by default.
pub const MAX_BRACKET_DEPTH: usize = 256;

/// Parse `input` into a [`TreePattern`], interning type names into `types`.
pub fn parse_pattern(input: &str, types: &mut TypeInterner) -> Result<TreePattern> {
    failpoint::hit("parse.pattern")?;
    let mut p =
        Parser { text: input, input: input.as_bytes(), pos: 0, types, star: None, depth: 0 };
    p.skip_ws();
    // A leading separator before the root is tolerated and ignored, so both
    // `/a/b` and `a/b` parse.
    let _ = p.try_separator();
    let name = p.parse_name()?;
    let mut pattern = TreePattern::new(p.types.intern(name));
    // Every other node follows a `/` or `//`: room for them all.
    pattern.reserve(input.bytes().filter(|&b| b == b'/').count());
    let root = pattern.root();
    p.parse_subtree(&mut pattern, root)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input after pattern"));
    }
    if let Some(star) = p.star {
        pattern.set_output(star);
    }
    pattern.validate()?;
    Ok(pattern)
}

struct Parser<'a> {
    /// The input; every token boundary is an ASCII byte, so the slices of
    /// names and numbers taken at them are `str` slices.
    text: &'a str,
    input: &'a [u8],
    pos: usize,
    types: &'a mut TypeInterner,
    star: Option<NodeId>,
    /// Current bracket nesting depth, bounded by [`MAX_BRACKET_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> Error {
        Error::PatternParse { offset: self.pos, message: message.to_owned() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `//` or `/`, if present.
    fn try_separator(&mut self) -> Option<EdgeKind> {
        self.skip_ws();
        if !self.eat(b'/') {
            return None;
        }
        if self.eat(b'/') {
            Some(EdgeKind::Descendant)
        } else {
            Some(EdgeKind::Child)
        }
    }

    /// One `attr op value` condition inside `{...}`.
    fn parse_condition(&mut self) -> Result<crate::condition::Condition> {
        use tpq_base::{Cmp, Value};
        let attr_name = self.parse_name()?;
        let attr = self.types.intern(attr_name);
        self.skip_ws();
        let op = if self.eat(b'!') {
            if !self.eat(b'=') {
                return Err(self.err("expected '=' after '!'"));
            }
            Cmp::Ne
        } else if self.eat(b'<') {
            if self.eat(b'=') {
                Cmp::Le
            } else {
                Cmp::Lt
            }
        } else if self.eat(b'>') {
            if self.eat(b'=') {
                Cmp::Ge
            } else {
                Cmp::Gt
            }
        } else if self.eat(b'=') {
            Cmp::Eq
        } else {
            return Err(self.err("expected a comparison operator"));
        };
        self.skip_ws();
        let value = if self.peek() == Some(b'"') {
            self.pos += 1;
            let start = self.pos;
            while self.peek().is_some() && self.peek() != Some(b'"') {
                self.pos += 1;
            }
            if self.peek() != Some(b'"') {
                return Err(self.err("unterminated string value"));
            }
            let s = self.text[start..self.pos].to_owned();
            self.pos += 1;
            Value::Str(s)
        } else {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            let n: i64 = self.text[start..self.pos]
                .parse()
                .map_err(|_| self.err("expected an integer or quoted string value"))?;
            Value::Int(n)
        };
        if matches!(value, Value::Str(_)) && matches!(op, Cmp::Lt | Cmp::Le | Cmp::Gt | Cmp::Ge) {
            return Err(self.err("ordering comparisons require integer values"));
        }
        Ok(crate::condition::Condition::new(attr, op, value))
    }

    /// A type or attribute name, borrowed from the input.
    fn parse_name(&mut self) -> Result<&'a str> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.pos += 1,
            _ => return Err(self.err("expected a type name")),
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// The rest of the subtree of `me`, whose name is already read: its
    /// `*` marker, condition groups and bracketed branches, then its spine
    /// child and so on down the spine. The spine is consumed iteratively
    /// so deep chains cannot overflow the stack; only bracket nesting
    /// recurses.
    fn parse_subtree(&mut self, q: &mut TreePattern, me: NodeId) -> Result<()> {
        let mut cur = me;
        loop {
            self.parse_decorations(q, cur)?;
            let Some(edge) = self.try_separator() else { return Ok(()) };
            cur = self.parse_child(q, cur, edge)?;
        }
    }

    /// A child's name, added under `parent` by `edge`.
    fn parse_child(
        &mut self,
        q: &mut TreePattern,
        parent: NodeId,
        edge: EdgeKind,
    ) -> Result<NodeId> {
        let name = self.parse_name()?;
        let ty = self.types.intern(name);
        Ok(q.add_child(parent, edge, ty))
    }

    /// What follows a node's name, before its spine: `*`/condition groups
    /// in any order, then bracketed branches.
    fn parse_decorations(&mut self, q: &mut TreePattern, me: NodeId) -> Result<()> {
        loop {
            self.skip_ws();
            if self.eat(b'*') {
                if self.star.is_some() {
                    return Err(self.err("more than one output marker '*'"));
                }
                self.star = Some(me);
            } else if self.peek() == Some(b'{') {
                self.pos += 1;
                loop {
                    let cond = self.parse_condition()?;
                    q.add_condition(me, cond);
                    self.skip_ws();
                    if self.eat(b',') {
                        continue;
                    }
                    if self.eat(b'}') {
                        break;
                    }
                    return Err(self.err("expected ',' or '}' in condition group"));
                }
            } else {
                break;
            }
        }
        // Branches.
        loop {
            self.skip_ws();
            if !self.eat(b'[') {
                return Ok(());
            }
            let edge = self
                .try_separator()
                .ok_or_else(|| self.err("branch must start with '/' or '//'"))?;
            if self.depth >= MAX_BRACKET_DEPTH {
                return Err(self.err("bracket nesting too deep"));
            }
            self.depth += 1;
            let child = self.parse_child(q, me, edge)?;
            self.parse_subtree(q, child)?;
            self.depth -= 1;
            self.skip_ws();
            if !self.eat(b']') {
                return Err(self.err("expected ']' to close branch"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::EdgeKind;

    fn parse(s: &str) -> (TreePattern, TypeInterner) {
        let mut tys = TypeInterner::new();
        let p = parse_pattern(s, &mut tys).expect("parse");
        (p, tys)
    }

    #[test]
    fn single_node_defaults_output_to_root() {
        let (p, tys) = parse("Book");
        assert_eq!(p.size(), 1);
        assert_eq!(p.output(), p.root());
        assert_eq!(tys.name(p.node(p.root()).primary), "Book");
    }

    #[test]
    fn chain_with_both_edge_kinds() {
        let (p, tys) = parse("a/b//c");
        assert_eq!(p.size(), 3);
        let b = p.children(p.root()).next().unwrap();
        let c = p.children(b).next().unwrap();
        assert_eq!(p.node(b).edge, EdgeKind::Child);
        assert_eq!(p.node(c).edge, EdgeKind::Descendant);
        assert_eq!(tys.name(p.node(c).primary), "c");
    }

    #[test]
    fn branches_and_spine() {
        let (p, _) = parse("Articles/Article*[/Title][//Paragraph]/Section//Paragraph");
        assert_eq!(p.size(), 6);
        let article = p.children(p.root()).next().unwrap();
        assert_eq!(p.output(), article);
        assert_eq!(p.children(article).count(), 3);
        let kinds: Vec<_> = p.children(article).map(|c| p.node(c).edge).collect();
        assert_eq!(kinds, vec![EdgeKind::Child, EdgeKind::Descendant, EdgeKind::Child]);
    }

    #[test]
    fn leading_separator_tolerated() {
        let (p, _) = parse("//a/b");
        assert_eq!(p.size(), 2);
    }

    #[test]
    fn whitespace_tolerated() {
        let (p, _) = parse("  a [ /b ] [ //c ] / d ");
        assert_eq!(p.size(), 4);
    }

    #[test]
    fn nested_branches() {
        let (p, _) = parse("a[/b[//c][/d]]//e");
        assert_eq!(p.size(), 5);
        let b = p.children(p.root()).next().unwrap();
        assert_eq!(p.children(b).count(), 2);
    }

    #[test]
    fn star_deep_in_branch() {
        let (p, tys) = parse("a[/b/c*]//d");
        let b = p.children(p.root()).next().unwrap();
        let c = p.children(b).next().unwrap();
        assert_eq!(p.output(), c);
        assert_eq!(tys.name(p.node(c).primary), "c");
    }

    #[test]
    fn errors() {
        let mut tys = TypeInterner::new();
        assert!(parse_pattern("", &mut tys).is_err());
        assert!(parse_pattern("a*[/b*]", &mut tys).is_err(), "two stars");
        assert!(parse_pattern("a[b]", &mut tys).is_err(), "branch without separator");
        assert!(parse_pattern("a/b]", &mut tys).is_err(), "trailing junk");
        assert!(parse_pattern("a[/b", &mut tys).is_err(), "unclosed branch");
        assert!(parse_pattern("a//", &mut tys).is_err(), "dangling separator");
        assert!(parse_pattern("3x", &mut tys).is_err(), "bad name start");
    }

    #[test]
    fn conditions_parse() {
        use tpq_base::{Cmp, Value};
        let (p, tys) = parse(r#"Book*{price<100}{lang="en"}/Title"#);
        let root = p.root();
        let conds = p.conditions(root);
        assert_eq!(conds.len(), 2);
        assert_eq!(conds[0].attr, tys.lookup("price").unwrap());
        assert_eq!(conds[0].op, Cmp::Lt);
        assert_eq!(conds[0].value, Value::Int(100));
        assert_eq!(conds[1].attr, tys.lookup("lang").unwrap());
        assert_eq!(conds[1].op, Cmp::Eq);
        assert_eq!(conds[1].value, Value::Str("en".into()));
    }

    #[test]
    fn condition_group_with_commas_and_all_operators() {
        use tpq_base::Cmp;
        let (p, _) = parse("a{x=1, y!=2, z<3, w<=4, v>5, u>=-6}");
        let ops: Vec<Cmp> = p.conditions(p.root()).iter().map(|c| c.op).collect();
        assert_eq!(ops, vec![Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge]);
        assert_eq!(p.conditions(p.root())[5].value, tpq_base::Value::Int(-6));
    }

    #[test]
    fn conditions_before_star_allowed() {
        let (p, _) = parse("a{x=1}*/b");
        assert_eq!(p.output(), p.root());
        assert_eq!(p.conditions(p.root()).len(), 1);
    }

    #[test]
    fn condition_errors() {
        let mut tys = TypeInterner::new();
        for bad in [
            "a{x<\"s\"}", // string ordering
            "a{x}",       // missing operator
            "a{x=}",      // missing value
            "a{x=1",      // unterminated group
            "a{x=\"unterminated}",
            "a{x!1}", // bad operator
        ] {
            assert!(parse_pattern(bad, &mut tys).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn conditioned_round_trip() {
        let mut tys = TypeInterner::new();
        let p =
            parse_pattern(r#"Book*{price<=99,lang="en"}[/Title{len>3}]//Para"#, &mut tys).unwrap();
        let printed = crate::print::to_dsl(&p, &tys);
        let q = parse_pattern(&printed, &mut tys).unwrap();
        assert!(crate::iso::isomorphic(&p, &q), "{printed}");
    }

    #[test]
    fn same_name_interns_to_same_type() {
        let (p, _) = parse("a//a//a");
        let ids: Vec<_> = p.alive_ids().map(|id| p.node(id).primary).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn deep_bracket_nesting_is_rejected_not_overflowed() {
        // Bracket nesting recurses, so it is depth-limited: an adversarial
        // input must come back as a parse error, never a stack overflow.
        let deep = 4 * MAX_BRACKET_DEPTH;
        let mut s = String::from("a");
        for _ in 0..deep {
            s.push_str("[/a");
        }
        s.push_str(&"]".repeat(deep));
        let mut tys = TypeInterner::new();
        let err = parse_pattern(&s, &mut tys).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
        // Nesting up to half the limit parses fine.
        let ok_depth = MAX_BRACKET_DEPTH / 2;
        let mut s = String::from("a");
        for _ in 0..ok_depth {
            s.push_str("[/a");
        }
        s.push_str(&"]".repeat(ok_depth));
        let p = parse_pattern(&s, &mut tys).unwrap();
        assert_eq!(p.size(), ok_depth + 1);
    }

    #[test]
    fn parse_pattern_failpoint_injects_an_error() {
        let _fp = tpq_base::failpoint::arm_for_thread(
            "parse.pattern",
            tpq_base::failpoint::Action::Err,
            1,
        );
        let mut tys = TypeInterner::new();
        let err = parse_pattern("a/b", &mut tys).unwrap_err();
        assert_eq!(err, Error::Injected { point: "parse.pattern".into() });
        // One-shot: the next parse succeeds.
        assert!(parse_pattern("a/b", &mut tys).is_ok());
    }

    #[test]
    fn very_deep_chains_parse_without_overflow() {
        // The spine is parsed iteratively; 100k-deep chains must work.
        let depth = 100_000;
        let mut s = String::from("a");
        for _ in 1..depth {
            s.push_str("/a");
        }
        let (p, _) = parse(&s);
        assert_eq!(p.size(), depth);
        assert_eq!(p.max_depth(), depth - 1);
        assert_eq!(p.post_order().len(), depth);
        assert_eq!(p.subtree_size(p.root()), depth);
    }
}
