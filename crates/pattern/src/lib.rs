//! Tree pattern queries (Section 2.1 and 3 of the paper).
//!
//! A [`TreePattern`] is a rooted tree whose nodes carry a *type* (and,
//! after chasing co-occurrence constraints, possibly extra types), whose
//! edges are either **child** (`/`) or **descendant** (`//`), and in which
//! exactly one node carries the output marker `*`.
//!
//! The crate provides:
//!
//! * an arena-based mutable pattern representation with tombstone removal
//!   and compaction ([`pattern`]);
//! * a concise XPath-like DSL, parser and printer ([`parse`], [`mod@print`]):
//!   `Articles/Article*[/Title][//Paragraph]//Section`;
//! * rooted-tree isomorphism and canonical keys ([`iso`]), used to verify
//!   the paper's uniqueness theorems (4.1 and 5.1);
//! * structural validation ([`TreePattern::validate`]).

#![warn(missing_docs)]

pub mod condition;
pub mod iso;
pub mod node;
pub mod parse;
pub mod pattern;
pub mod print;
pub mod xpath;

pub use condition::{entails, satisfiable, satisfied_by, Condition};
pub use iso::{isomorphic, CanonicalKey};
pub use node::{EdgeKind, NodeId, PatternNode};
pub use parse::{parse_pattern, MAX_BRACKET_DEPTH};
pub use pattern::TreePattern;
pub use xpath::parse_xpath;

use tpq_base::{Result, TypeInterner};

/// The two query syntaxes the crate parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Syntax {
    /// The pattern DSL (`Book*[/Title]//Section`), the default.
    #[default]
    Dsl,
    /// The XPath subset (`//Book[Title]//Section`).
    Xpath,
}

impl Syntax {
    /// Parse `text` in this syntax, interning type names into `types`.
    pub fn parse(self, text: &str, types: &mut TypeInterner) -> Result<TreePattern> {
        match self {
            Syntax::Dsl => parse_pattern(text, types),
            Syntax::Xpath => parse_xpath(text, types),
        }
    }
}
