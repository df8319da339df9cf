//! An XPath front-end for tree patterns.
//!
//! Tree patterns are the core of XPath's descendant/child fragment
//! (`XP^{/,//,[]}` in the literature). This module parses a practical
//! XPath subset directly into a [`TreePattern`]:
//!
//! ```text
//! //Articles/Article[Title][.//Paragraph][@lang='en']//Section
//! ```
//!
//! * `/` and `//` are child and descendant axes; a leading axis is
//!   allowed and ignored (patterns float anywhere in the forest);
//! * a predicate `[p]` holds a relative path (`[Title]`, `[Sub/Leaf]`,
//!   `[.//Deep]`, `[./Kid]`) or an attribute comparison
//!   (`[@price < 100]`, `[@lang = 'en']`, with `!=`, `<`, `<=`, `>`,
//!   `>=` and single- or double-quoted strings);
//! * the **last step of the main path** is the output node — XPath's
//!   selection semantics — so `//a/b[c]` marks `b`.
//!
//! Not supported (rejected with an error): wildcards (`*` as a name
//! test), other axes (`parent::` etc.), `|` unions, positional
//! predicates, and functions.

use crate::condition::Condition;
use crate::node::EdgeKind;
use crate::parse::MAX_BRACKET_DEPTH;
use crate::pattern::TreePattern;
use crate::NodeId;
use tpq_base::{failpoint, Cmp, Error, Result, TypeInterner, Value};

/// Parse an XPath expression into a tree pattern.
pub fn parse_xpath(input: &str, types: &mut TypeInterner) -> Result<TreePattern> {
    failpoint::hit("parse.xpath")?;
    let mut p = XPathParser { text: input, input: input.as_bytes(), pos: 0, types, depth: 0 };
    p.skip_ws();
    let axis = p.leading_axis();
    let _ = axis; // leading axis is irrelevant: patterns float
    let (mut pattern, mut last) = p.parse_step(None)?;
    loop {
        p.skip_ws();
        match p.try_axis() {
            Some(edge) => {
                let (pat, me) = p.parse_step(Some((pattern, last, edge)))?;
                pattern = pat;
                last = me;
            }
            None => break,
        }
    }
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input after XPath expression"));
    }
    pattern.set_output(last);
    pattern.validate()?;
    Ok(pattern)
}

struct XPathParser<'a> {
    /// The input; token boundaries are ASCII bytes, so slices taken at
    /// them are `str` slices.
    text: &'a str,
    input: &'a [u8],
    pos: usize,
    types: &'a mut TypeInterner,
    /// Predicate nesting depth, bounded by [`MAX_BRACKET_DEPTH`]. The
    /// main path and relative paths are consumed iteratively; only
    /// `[...]` predicates recurse (`parse_step` ↔ `parse_relative_path`).
    depth: usize,
}

impl<'a> XPathParser<'a> {
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

    fn leading_axis(&mut self) -> Option<EdgeKind> {
        self.try_axis()
    }

    fn try_axis(&mut self) -> Option<EdgeKind> {
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

    fn parse_name(&mut self) -> Result<&'a str> {
        self.skip_ws();
        if self.peek() == Some(b'*') {
            return Err(self.err("wildcard name tests are not supported"));
        }
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.pos += 1,
            _ => return Err(self.err("expected an element name")),
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let name = &self.text[start..self.pos];
        if self.input[self.pos..].starts_with(b"::") {
            return Err(self.err(&format!("axis '{name}::' is not supported")));
        }
        Ok(name)
    }

    /// One step: name + predicates. `attach` is `(pattern, parent, edge)`.
    fn parse_step(
        &mut self,
        attach: Option<(TreePattern, NodeId, EdgeKind)>,
    ) -> Result<(TreePattern, NodeId)> {
        let name = self.parse_name()?;
        let ty = self.types.intern(name);
        let (mut pattern, me) = match attach {
            None => {
                let p = TreePattern::new(ty);
                let root = p.root();
                (p, root)
            }
            Some((mut p, parent, edge)) => {
                let id = p.add_child(parent, edge, ty);
                (p, id)
            }
        };
        loop {
            self.skip_ws();
            if !self.eat(b'[') {
                break;
            }
            self.skip_ws();
            if self.peek() == Some(b'@') {
                self.pos += 1;
                let cond = self.parse_attr_comparison()?;
                pattern.add_condition(me, cond);
            } else {
                if self.depth >= MAX_BRACKET_DEPTH {
                    return Err(self.err("predicate nesting too deep"));
                }
                self.depth += 1;
                pattern = self.parse_relative_path(pattern, me)?;
                self.depth -= 1;
            }
            self.skip_ws();
            if !self.eat(b']') {
                return Err(self.err("expected ']' closing predicate"));
            }
        }
        if self.peek() == Some(b'|') {
            return Err(self.err("union '|' is not supported"));
        }
        Ok((pattern, me))
    }

    /// `[Title]`, `[Sub/Leaf]`, `[./Kid]`, `[.//Deep//Deeper]`.
    fn parse_relative_path(
        &mut self,
        mut pattern: TreePattern,
        anchor: NodeId,
    ) -> Result<TreePattern> {
        self.skip_ws();
        let first_edge = if self.eat(b'.') {
            // `./x` or `.//x`
            self.try_axis().ok_or_else(|| self.err("expected '/' or '//' after '.'"))?
        } else {
            // Bare `x` means child.
            EdgeKind::Child
        };
        let (pat, mut cur) = self.parse_step(Some((pattern, anchor, first_edge)))?;
        pattern = pat;
        while let Some(edge) = self.try_axis() {
            let (pat, me) = self.parse_step(Some((pattern, cur, edge)))?;
            pattern = pat;
            cur = me;
        }
        Ok(pattern)
    }

    /// `@name op literal` (the `@` is already consumed).
    fn parse_attr_comparison(&mut self) -> Result<Condition> {
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
            return Err(self.err("expected a comparison operator after '@attr'"));
        };
        self.skip_ws();
        let value = match self.peek() {
            Some(q @ (b'\'' | b'"')) => {
                self.pos += 1;
                let start = self.pos;
                while self.peek().is_some() && self.peek() != Some(q) {
                    self.pos += 1;
                }
                if self.peek() != Some(q) {
                    return Err(self.err("unterminated string literal"));
                }
                let s = self.text[start..self.pos].to_owned();
                self.pos += 1;
                Value::Str(s)
            }
            _ => {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                let n: i64 = self.text[start..self.pos]
                    .parse()
                    .map_err(|_| self.err("expected a number or quoted string"))?;
                Value::Int(n)
            }
        };
        if matches!(value, Value::Str(_)) && matches!(op, Cmp::Lt | Cmp::Le | Cmp::Gt | Cmp::Ge) {
            return Err(self.err("ordering comparisons require numeric literals"));
        }
        Ok(Condition::new(attr, op, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::isomorphic;
    use crate::parse::parse_pattern;

    fn xp(s: &str) -> (TreePattern, TypeInterner) {
        let mut tys = TypeInterner::new();
        let p = parse_xpath(s, &mut tys).expect("xpath parse");
        (p, tys)
    }

    fn same(xpath: &str, dsl: &str) {
        let mut tys = TypeInterner::new();
        let a = parse_xpath(xpath, &mut tys).unwrap();
        let b = parse_pattern(dsl, &mut tys).unwrap();
        assert!(isomorphic(&a, &b), "{xpath} != {dsl}");
    }

    #[test]
    fn simple_paths() {
        same("/a/b", "a/b*");
        same("//a//b", "a//b*");
        same("a/b//c", "a/b//c*");
        same("a", "a*");
    }

    #[test]
    fn output_is_the_last_main_step() {
        let (p, tys) = xp("//Articles/Article[Title]//Section");
        assert_eq!(tys.name(p.node(p.output()).primary), "Section");
    }

    #[test]
    fn predicates_translate_to_branches() {
        same("a[b][.//c]/d", "a[/b][//c]/d*");
        same("a[b/c]", "a*/b/c");
    }

    #[test]
    fn nested_predicate_paths() {
        let mut tys = TypeInterner::new();
        let a = parse_xpath("a[b/c][.//d//e]", &mut tys).unwrap();
        let b = parse_pattern("a*[/b/c]//d//e", &mut tys).unwrap();
        assert!(isomorphic(&a, &b));
        let c = parse_xpath("a[./b]", &mut tys).unwrap();
        let d = parse_pattern("a*/b", &mut tys).unwrap();
        assert!(isomorphic(&c, &d));
    }

    #[test]
    fn attribute_predicates_become_conditions() {
        let (p, tys) = xp("//Book[@price < 100][@lang = 'en']/Title");
        let root = p.root();
        let conds = p.conditions(root);
        assert_eq!(conds.len(), 2);
        assert_eq!(conds[0].attr, tys.lookup("price").unwrap());
        assert_eq!(conds[0].op, Cmp::Lt);
        assert_eq!(conds[1].value, Value::Str("en".into()));
    }

    #[test]
    fn double_quoted_strings_work() {
        let (p, _) = xp(r#"Book[@lang = "en"]"#);
        assert_eq!(p.conditions(p.root()).len(), 1);
    }

    #[test]
    fn minimization_works_on_xpath_input() {
        // The intro example, in XPath clothes.
        let mut tys = TypeInterner::new();
        let q = parse_xpath("//Dept[.//DBProject]//Manager//DBProject", &mut tys).unwrap();
        // XPath marks the last step (DBProject), so the redundant branch
        // differs from the DSL version — here the bare [.//DBProject]
        // predicate is still foldable.
        assert_eq!(q.size(), 4);
    }

    #[test]
    fn unsupported_features_are_rejected() {
        let mut tys = TypeInterner::new();
        for bad in
            ["//*", "a|b", "parent::a", "a[1]", "a[@x < 'str']", "a[", "a[@x]", "a[]", "", "a/"]
        {
            assert!(parse_xpath(bad, &mut tys).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        same("  a [ b ] [ .//c ] / d ", "a[/b][//c]/d*");
    }

    #[test]
    fn deep_predicate_nesting_is_rejected_not_overflowed() {
        let deep = 4 * MAX_BRACKET_DEPTH;
        let mut s = String::from("a");
        for _ in 0..deep {
            s.push_str("[a");
        }
        s.push_str(&"]".repeat(deep));
        let mut tys = TypeInterner::new();
        let err = parse_xpath(&s, &mut tys).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
        // A long *relative path* inside one predicate is iterative and
        // stays fine at any length.
        let mut s = String::from("a[b");
        for _ in 0..50_000 {
            s.push_str("/b");
        }
        s.push(']');
        assert!(parse_xpath(&s, &mut tys).is_ok());
    }
}
